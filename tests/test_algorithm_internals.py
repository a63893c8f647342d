"""Deeper, targeted tests of algorithm internals: refinement mappings,
guarantee relations, encodings, and the helping machinery."""

import pytest

from repro.algorithms import get_algorithm, pack2
from repro.instrument.state import singleton_delta
from repro.memory import Store


class TestStackPhi:
    def phi(self):
        return get_algorithm("treiber").phi

    def test_empty(self):
        assert self.phi().of(Store({"S": 0}))["Stk"] == ()

    def test_two_nodes(self):
        sigma = Store({"S": 5, 5: 10, 6: 7, 7: 20, 8: 0})
        assert self.phi().of(sigma)["Stk"] == (10, 20)

    def test_dangling_pointer_is_malformed(self):
        assert self.phi().of(Store({"S": 5})) is None

    def test_cycle_is_malformed(self):
        sigma = Store({"S": 5, 5: 1, 6: 5})
        assert self.phi().of(sigma) is None

    def test_garbage_nodes_ignored(self):
        sigma = Store({"S": 0, 9: 1, 10: 0})
        assert self.phi().of(sigma)["Stk"] == ()


class TestQueuePhi:
    def test_sentinel_dropped(self):
        phi = get_algorithm("ms_lock_free_queue").phi
        sigma = Store({"Head": 40, "Tail": 44,
                       40: 0, 41: 44, 44: 9, 45: 0})
        assert phi.of(sigma)["Q"] == (9,)


class TestSetPhis:
    def test_lazy_phi_skips_marked(self):
        from repro.algorithms.lazy_list import (
            HEAD_NODE, MINUS_INF, PLUS_INF, TAIL_NODE, lazy_phi,
        )

        # head -> node(1, marked) -> tail
        sigma = Store({
            HEAD_NODE: MINUS_INF, HEAD_NODE + 1: 10,
            HEAD_NODE + 2: 0, HEAD_NODE + 3: 0,
            10: 1, 11: TAIL_NODE, 12: 0, 13: 1,   # marked
            TAIL_NODE: PLUS_INF, TAIL_NODE + 1: 0,
            TAIL_NODE + 2: 0, TAIL_NODE + 3: 0,
        })
        assert lazy_phi().of(sigma)["S"] == frozenset()

    def test_hm_phi_skips_marked_edges(self):
        from repro.algorithms.harris_michael_list import (
            HEAD_NODE, MINUS_INF, PLUS_INF, TAIL_NODE, hm_phi,
        )

        # head -> node(1) whose next is marked -> tail
        sigma = Store({
            HEAD_NODE: MINUS_INF, HEAD_NODE + 1: 2 * 10,
            10: 1, 11: 2 * TAIL_NODE + 1,          # marked edge
            TAIL_NODE: PLUS_INF, TAIL_NODE + 1: 0,
        })
        assert hm_phi().of(sigma)["S"] == frozenset()

    def test_unsorted_list_is_malformed(self):
        from repro.algorithms.lock_coupling_list import (
            HEAD_NODE, MINUS_INF, PLUS_INF, TAIL_NODE, set_phi,
        )

        sigma = Store({
            "Hd": HEAD_NODE,
            HEAD_NODE: MINUS_INF, HEAD_NODE + 1: 10, HEAD_NODE + 2: 0,
            10: 5, 11: 14, 12: 0,
            14: 3, 15: TAIL_NODE, 16: 0,           # 3 after 5: unsorted
            TAIL_NODE: PLUS_INF, TAIL_NODE + 1: 0, TAIL_NODE + 2: 0,
        })
        assert set_phi().of(sigma) is None


class TestCcasEncoding:
    def test_phi_plain_value(self):
        phi = get_algorithm("ccas").phi
        theta = phi.of(Store({"a": 4, "flag": 1}))  # 4 = plain 2
        assert theta["a"] == 2 and theta["flag"] == 1

    def test_phi_descriptor_reads_o(self):
        phi = get_algorithm("ccas").phi
        # descriptor at 6: (id=1, o=0, n=1); a = 2*6+1 = 13
        sigma = Store({"a": 13, "flag": 1, 6: 1, 7: 0, 8: 1})
        assert phi.of(sigma)["a"] == 0

    def test_phi_dangling_descriptor(self):
        phi = get_algorithm("ccas").phi
        assert phi.of(Store({"a": 13, "flag": 1})) is None

    def test_guarantee_install_and_resolve(self):
        alg = get_algorithm("ccas")
        d = singleton_delta(Store(), alg.spec.initial)
        base = Store({"a": 0, "flag": 1, 6: 1, 7: 0, 8: 1})
        install = base.set("a", 13)
        assert alg.guarantee((base, d), (install, d), 1)
        resolve_n = install.set("a", 2)   # plain 1 = d.n
        assert alg.guarantee((install, d), (resolve_n, d), 1)
        resolve_o = install.set("a", 0)   # plain 0 = d.o
        assert alg.guarantee((install, d), (resolve_o, d), 1)
        bogus = install.set("a", 4)       # plain 2: neither o nor n
        assert not alg.guarantee((install, d), (bogus, d), 1)

    def test_guarantee_flag_only(self):
        alg = get_algorithm("ccas")
        d = singleton_delta(Store(), alg.spec.initial)
        s0 = Store({"a": 0, "flag": 1})
        s1 = s0.set("flag", 0)
        assert alg.guarantee((s0, d), (s1, d), 1)
        both = s1.set("a", 2)
        assert not alg.guarantee((s0, d), (both, d), 1)


class TestHsyHelping:
    def test_elimination_is_reachable(self):
        """The lin(him) path genuinely fires in the standard workload: a
        step of one thread ends another thread's pending operation."""

        from repro.instrument import is_end, verify_instrumented

        alg = get_algorithm("hsy_stack")
        helped = []

        def guarantee(before, after, tid):
            pending = {t for u, _ in before[1] for t in u
                       if t != tid and not is_end(u[t])}
            for t in pending:
                if all(t in u and is_end(u[t]) for u, _ in after[1]):
                    helped.append((tid, t))
            return alg.guarantee(before, after, tid)

        w = alg.workload
        res = verify_instrumented(alg.instrumented, w.menu, w.threads,
                                  w.ops_per_thread, alg.limits,
                                  alg.invariant, guarantee)
        assert res.ok
        assert helped, "elimination never fired: dead helping path"

    def test_elimination_preserves_stack(self):
        """lin(cid); lin(him) is a net no-op on the abstract stack."""

        from repro.instrument.state import (
            delta_add_thread, delta_lin, op_of,
        )

        alg = get_algorithm("hsy_stack")
        d = singleton_delta(Store(), alg.spec.initial)
        d = delta_add_thread(d, 1, op_of("push", 7))
        d = delta_add_thread(d, 2, op_of("pop", 0))
        d = delta_lin(alg.spec, d, 1)
        d = delta_lin(alg.spec, d, 2)
        ((u, th),) = d
        assert th == alg.spec.initial
        assert u[1] == ("end", 0) and u[2] == ("end", 7)


class TestWorkloadDescriptions:
    def test_describe(self):
        alg = get_algorithm("treiber")
        text = alg.workload.describe()
        assert "2 threads" in text and "push(1)" in text
