"""Interleaving exploration of whole programs (the ``⊢→`` transitions).

:class:`Explorer` enumerates all interleavings of a :class:`Program` up to
configurable :class:`Limits`, collecting

* the prefix-closed set of *histories* (object-event traces, Sec. 3.2) —
  the input to linearizability checking, ``H[[W, (σ_c, σ_o)]]``;
* the prefix-closed set of *observable traces* (Sec. 3.3),
  ``O[[W, (σ_c, σ_o)]]``;
* whether any execution aborted, and whether exploration was cut by a
  bound (``bounded``) — bounded results are sound for "no violation found
  up to the bound" claims, which is how every bench reports them.

Search nodes are deduplicated on (configuration, history, observable
trace): the future behaviour of a node depends only on its configuration,
so expanding each such node once is complete.  The search itself is
:func:`repro.semantics.search.search`, shared with every other decider.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import AtomicLoopDivergence, BoundExceeded, CompileUnsupported
from ..lang.program import ObjectImpl, Program
from ..memory.store import Store
from ..reduce import (
    Interner,
    canonicalize_config,
    compute_owner,
    footprint_in_object_heap,
    footprint_is_private,
    resolve_policy,
)
from ..reduce.footprint import footprints_independent
from ..reduce.symmetry import (
    ThreadPermuter,
    address_items,
    check_event_escape,
    close_traces,
    frame_addresses,
    frame_change_covered,
    root_bases,
    rotation,
    step_keeps_canonical,
)
from .events import Event, Trace
from .search import NO_SLEEP, BoundedCache, Node, SearchStats, search
from .thread import (
    Frame,
    ThreadState,
    expand_until_visible,
    initial_thread,
    thread_step,
)


@dataclass(frozen=True, eq=False)
class Config:
    """A whole-machine configuration ``(σ_c, σ_o, K)`` plus thread code.

    Hash-consed: exploration hashes every configuration on every
    seen-set lookup, so the hash is computed once and cached, and
    equality short-circuits on identity (interned configurations) and on
    cached-hash mismatch before walking the structure.
    """

    threads: Tuple[ThreadState, ...]
    sigma_c: Store
    sigma_o: Store

    @property
    def quiescent(self) -> bool:
        return all(t.finished for t in self.threads)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Config:
            return NotImplemented
        if hash(self) != hash(other):
            return False
        return (self.threads == other.threads
                and self.sigma_c == other.sigma_c
                and self.sigma_o == other.sigma_o)

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.threads, self.sigma_c, self.sigma_o))
            object.__setattr__(self, "_hash", h)
        return h


@dataclass(frozen=True)
class Limits:
    """Exploration bounds, with one meaning in every decider.

    ``max_depth`` caps the number of transitions along any path: a node
    reached by ``max_depth`` transitions is still expanded, but only to
    tell a terminal node (no successors: not bounded) from a cut one
    (successors dropped: ``bounded``).  ``max_nodes`` caps the number of
    expanded search nodes: a run that expands exactly ``max_nodes`` and
    still has nodes left reports ``nodes == max_nodes`` and ``bounded``.
    """

    max_depth: int = 400
    max_nodes: int = 200_000


#: A search node (see :mod:`repro.semantics.search`) whose label is
#: (history so far, observable trace so far); the dedup key is
#: ``(config, label)``.
ExploreNode = Node

#: Entries held by the per-explorer ownership-map cache before it is
#: cleared wholesale (see :class:`~repro.semantics.search.BoundedCache`).
_OWNER_CACHE_CAP = 1 << 15

#: Entries held by the per-explorer ownership-closure memo (see
#: :func:`repro.reduce.ownership.compute_owner`).
_CLOSURE_MEMO_CAP = 1 << 15

#: Entries held by the per-explorer address-shape memo (see
#: :meth:`Explorer._canonical`): many configurations share one heap
#: shape, and the canonical renaming of a shape never changes.
_SHAPE_MEMO_CAP = 1 << 16

#: Entries held by the per-explorer step memo (see
#: :meth:`Explorer._thread_successors`).
_STEP_MEMO_CAP = 1 << 15

#: Entries held by the per-explorer expansion memo (see
#: :meth:`Explorer._expand`), which only the explore client fills.
_EXPAND_MEMO_CAP = 1 << 13


@dataclass
class ExplorationResult(SearchStats):
    """The history and observable-trace sets a bounded exploration
    reached; the search's own bookkeeping is the :class:`SearchStats`
    it extends (``expanded_keys`` collects ``(config, (hist, obs))``)."""

    histories: Set[Trace] = field(default_factory=set)
    observables: Set[Trace] = field(default_factory=set)
    aborted: bool = False
    terminal_configs: Set[Config] = field(default_factory=set)

    def add_prefixes(self, trace: Trace) -> None:
        """Record all prefixes of an observable trace (prefix closure)."""
        for i in range(len(trace) + 1):
            self.observables.add(trace[:i])


def initial_config(program: Program) -> Config:
    sigma_c = Store(dict(program.initial_client_memory))
    sigma_o = Store(program.object_impl.initial_memory)
    threads = tuple(initial_thread(c) for c in program.clients)
    return Config(threads, sigma_c, sigma_o)


class Explorer:
    """Exhaustive bounded interleaving exploration of a program.

    ``reduce`` selects the state-space reductions (``"none"`` / ``"por"``
    / ``"por+sym"``; ``None`` means the default, everything on — see
    :mod:`repro.reduce`).  The requested mode is filtered against the
    program's static eligibility, so the explored history and
    observable-trace sets are always exactly those of the unreduced
    search.
    """

    def __init__(self, program: Program, limits: Optional[Limits] = None,
                 reduce: Optional[str] = None,
                 semantics: Optional[str] = None):
        # Imported lazily: repro.compile builds on repro.semantics.
        from ..compile import (
            DEFAULT_SEMANTICS,
            SEMANTICS_COMPILED,
            SEMANTICS_INTERP,
            compile_program,
            compiled_expand_until_visible,
            validate_semantics,
        )

        self.program = program
        self.impl: ObjectImpl = program.object_impl
        self.limits = limits or Limits()
        self.private_client_vars = program.private_client_vars
        self.policy = resolve_policy(program, reduce)
        self.interner: Optional[Interner] = (
            Interner() if self.policy.intern else None)
        # Reduction counters, accumulated across run_from calls; the
        # per-call deltas are transferred into each result.
        self.por_pruned = 0
        self.sym_merged = 0
        self.sleep_skipped = 0
        self.tsym_merged = 0
        #: Exploration diagnostics (deduplicated, e.g. atomic-loop fuel
        #: cuts); transferred into each result by ``run_from``.
        self.diagnostics: List[str] = []
        self._diag_seen: Set[str] = set()

        if semantics is None:
            semantics = DEFAULT_SEMANTICS
        else:
            validate_semantics(semantics)
        self.compiled = None
        self.semantics_reasons: Tuple[str, ...] = ()
        if semantics == SEMANTICS_COMPILED:
            try:
                self.compiled = compile_program(program)
            except CompileUnsupported as exc:
                self.semantics_reasons = tuple(sorted({str(exc)}))
        self.semantics = (SEMANTICS_COMPILED if self.compiled is not None
                          else SEMANTICS_INTERP)

        # The per-thread step and invisible-compression entry points,
        # bound once (table-driven or interpreted).
        if self.compiled is not None:
            compiled = self.compiled
            steps = compiled.steps

            def _step(ts, tid, sigma_c, sigma_o, fps, alloc):
                control = ts.control
                if not control:
                    return []
                return steps[control[0]](tid, ts.frame, sigma_c, sigma_o,
                                         fps, alloc)

            def _visible(ts, sigma_c, sigma_o):
                return compiled_expand_until_visible(compiled, ts, sigma_c)
        else:
            impl = self.impl
            private = self.private_client_vars

            def _step(ts, tid, sigma_c, sigma_o, fps, alloc):
                return thread_step(ts, tid, sigma_c, sigma_o, impl,
                                   footprints=fps, alloc=alloc)

            def _visible(ts, sigma_c, sigma_o):
                return expand_until_visible(ts, sigma_c, sigma_o, private)

        self._step = _step
        self._visible = _visible

        # Table-indexed fast path, active only under the compiled
        # semantics: every compiled step carries a precomputed footprint
        # template, which lets the explorer prove most successors
        # already canonical without walking them (see
        # :func:`repro.reduce.symmetry.step_keeps_canonical`).
        self._fast_sym = self.compiled is not None and self.policy.sym
        # Ownership and canonicalization read the stores and frame
        # locals, never a control: both are memoized on the heap shape,
        # under either semantics (see :meth:`_owner_of` and
        # :meth:`_canonical`).
        self._owner_cache = BoundedCache(_OWNER_CACHE_CAP)
        self._closure_memo = BoundedCache(_CLOSURE_MEMO_CAP)
        self._shape_memo = BoundedCache(_SHAPE_MEMO_CAP)
        # A thread's successors depend only on its own state and the
        # stores, never on the other threads: memoized on exactly those
        # (see :meth:`_thread_successors`).
        self._step_memo = BoundedCache(_STEP_MEMO_CAP)
        # A node's expansion depends only on its configuration and the
        # reduction context, not on its label: the explore client, which
        # reaches one configuration under many (history, trace) labels,
        # replays it (see :meth:`_expand`).
        self._expand_memo = BoundedCache(_EXPAND_MEMO_CAP)

        # Sleep-set POR: independence is decided *only* on the static
        # footprint templates of control heads (see
        # :func:`repro.compile.lower.stmt_template`), which both
        # semantics derive from the same statement objects — interpreted
        # and compiled runs therefore prune identically.
        self._sleep = self.policy.sleep
        self._tmpl_cache: Dict[Tuple[int, Optional[str]], tuple] = {}
        self._interp_ctxs: Dict[Optional[str], object] = {}
        self._stmt_template = None
        if self._sleep and self.compiled is None:
            from ..compile.lower import _Ctx, stmt_template
            self._stmt_template = stmt_template
            obj_vars = frozenset(
                k for k in self.impl.initial_memory if isinstance(k, str))
            ctxs: Dict[Optional[str], object] = {
                None: _Ctx(False, frozenset(), obj_vars, "client")}
            for name in self.impl.methods:
                mdef = self.impl.method(name)
                declared = frozenset(mdef.locals) | {mdef.param, "cid"}
                ctxs[name] = _Ctx(True, declared, obj_vars,
                                  f"method {name}")
            self._interp_ctxs = ctxs

        # Thread-identity symmetry: exploration proceeds in the rotated
        # canonical space (threads that have emitted an event occupy the
        # lowest identities in first-appearance order); the collected
        # trace sets are representatives and are closed back under all
        # thread permutations by :meth:`close_result`.
        self._tsym: Optional[ThreadPermuter] = None
        if self.policy.tsym:
            from ..reduce.eligibility import scan_thread_symmetry
            ts = scan_thread_symmetry(program)
            if ts.ok:
                self._tsym = ThreadPermuter(program, ts,
                                            compiled=self.compiled)

    def _owner_of(self, config: "Config") -> Dict[int, int]:
        """The ownership map of ``config``, cached on its stores and
        frames.

        The map depends only on the stores and frames — not on the
        thread controls — so configurations that differ only in program
        counters share one computation; a miss shares the closures
        inside it through the closure memo.
        """

        cache = self._owner_cache
        key = (config.sigma_o, config.sigma_c,
               tuple(t.frame for t in config.threads))
        owner = cache.get(key)
        if owner is None:
            owner = cache.put(key, compute_owner(
                config, self.policy, self._closure_memo))
        return owner

    def _canonical(self, config: "Config") -> Tuple["Config", bool]:
        """``canonicalize_config(config, Store)``, memoized on the
        address shape of ``config``.

        The canonical walk reads σ_o, each thread's address-valued frame
        locals (thread by thread) and the address-valued σ_c entries —
        never a control, never a value below ``SYM_BASE`` — and renames
        only those.  So the memo is keyed on exactly these and stores
        ``(changed, σ_o', moved frames, moved σ_c entries)``: a hit
        reuses the stored σ_o' and rebuilds only the frames and the σ_c
        whose address values move.  A miss calls ``canonicalize_config``
        by this module's name, so a wrapper installed there sees every
        walk.
        """

        threads = config.threads
        sigma_c = config.sigma_c
        key = (config.sigma_o,
               tuple([frame_addresses(t.frame) for t in threads]),
               address_items(sigma_c._data))
        memo = self._shape_memo
        hit = memo.get(key)
        if hit is None:
            canon, changed = canonicalize_config(config, Store)
            memo.put(key, (
                changed, canon.sigma_o,
                tuple((idx, frame_addresses(new.frame))
                      for idx, (new, old) in enumerate(
                          zip(canon.threads, threads))
                      if new is not old),
                None if canon.sigma_c is sigma_c
                else address_items(canon.sigma_c._data)))
            return canon, changed
        changed, sigma_o, moved_frames, moved_c = hit
        if not changed:
            return config, False
        if moved_frames:
            threads = list(threads)
            for idx, moved in moved_frames:
                tstate = threads[idx]
                frame = tstate.frame
                threads[idx] = ThreadState(
                    control=tstate.control,
                    frame=Frame(locals=frame.locals.set_many(moved),
                                retvar=frame.retvar,
                                caller_control=frame.caller_control,
                                method=frame.method))
            threads = tuple(threads)
        if moved_c is not None:
            sigma_c = sigma_c.set_many(moved_c)
        return Config(threads, sigma_c, sigma_o), True

    def _thread_successors(self, tid: int, tstate: ThreadState,
                           sigma_c: Store, sigma_o: Store, por: bool
                           ) -> tuple:
        """Thread ``tid``'s step outcomes from ``tstate``, each paired
        with its invisible-compression expansion (``None`` for an aborted
        outcome).

        Memoized on ``(tid, tstate, σ_c, σ_o, por)``: a step is a pure
        function of the thread's own state and the two stores (``por``
        asks for footprints, ``policy.alloc`` is fixed per explorer), so
        every combination of the other threads' states shares one
        computation.  ``_step`` and ``_visible`` are looked up on each
        miss, so wrappers installed on the instance after ``__init__``
        see every computed step.  A step that raises is not memoized: it
        raises again on the next call.
        """

        key = (tid, tstate, sigma_c, sigma_o, por)
        memo = self._step_memo
        hit = memo.get(key)
        if hit is None:
            visible = self._visible
            hit = memo.put(key, tuple(
                (oc, None if oc.aborted else visible(
                    oc.thread_state, oc.sigma_c, oc.sigma_o))
                for oc in self._step(tstate, tid, sigma_c, sigma_o, por,
                                     self.policy.alloc)))
        return hit

    def _note_divergence(self, tid: int, exc: BaseException) -> None:
        message = f"thread {tid}: {exc}"
        if message not in self._diag_seen:
            self._diag_seen.add(message)
            self.diagnostics.append(message)

    def _template_of(self, config: "Config", tid: int):
        """Static footprint template of thread ``tid``'s next step.

        ``None`` when the step may emit an event or touch heap cells —
        such a step never participates in sleep-set independence.  Both
        semantics resolve to the same :func:`stmt_template` result for
        the same control head.
        """

        tstate = config.threads[tid - 1]
        control = tstate.control
        if not control:
            return None
        if self.compiled is not None:
            return self.compiled.fp_templates[control[0]]
        head = control[0]
        frame = tstate.frame
        mname = frame.method if frame is not None else None
        key = (id(head), mname)
        hit = self._tmpl_cache.get(key)
        if hit is not None and hit[0] is head:
            return hit[1]
        ctx = self._interp_ctxs.get(mname)
        fp = None if ctx is None else self._stmt_template(head, ctx)
        self._tmpl_cache[key] = (head, fp)
        return fp

    def close_result(self, result: "ExplorationResult") -> None:
        """Close the collected trace sets under thread permutations.

        Required exactly when thread-identity canonicalization was
        active: exploration then only visits permutation representatives
        of histories and observables, and eligibility guarantees every
        thread permutation is a program automorphism, so the real sets
        are their Sym(n)-closure.  ``terminal_configs`` stays a set of
        representatives.  Idempotent; a no-op without tsym.
        """

        if self._tsym is None:
            return
        n = len(self.program.clients)
        result.histories = close_traces(result.histories, n)
        result.observables = close_traces(result.observables, n)

    def initial_nodes(self) -> List[Config]:
        """Initial configurations, with invisible steps pre-executed."""

        start = initial_config(self.program)
        if self.compiled is not None:
            start = Config(self.compiled.entry_threads, start.sigma_c,
                           start.sigma_o)
        configs = [start]
        for idx in range(len(start.threads)):
            nxt: List[Config] = []
            for config in configs:
                expanded = self._visible(
                    config.threads[idx], config.sigma_c, config.sigma_o)
                for ts, sc in expanded:
                    threads = (config.threads[:idx] + (ts,)
                               + config.threads[idx + 1:])
                    nxt.append(Config(threads, sc, config.sigma_o))
            configs = nxt
        return configs

    def start_nodes(self) -> List[ExploreNode]:
        """The deduplicated initial search nodes.

        Under ``por+sym`` each initial configuration is first replaced by
        the canonical representative of its address-permutation class, so
        symmetric initial configurations dedup to one node.
        """

        nodes: List[ExploreNode] = []
        seen: Set[tuple] = set()
        label = ((), ())
        for start in self.initial_nodes():
            if self.policy.sym:
                start, changed = canonicalize_config(start, Store)
                if changed:
                    self.sym_merged += 1
            if self.interner is not None:
                start = self.interner.config(start)
            key = (start, label)
            if key not in seen:
                seen.add(key)
                nodes.append((start, label, 0, key))
        return nodes

    def new_result(self, **fields) -> ExplorationResult:
        """An empty result carrying this explorer's reduction and
        semantics provenance (the empty trace is always reached)."""

        result = ExplorationResult(
            reduce=self.policy.effective,
            reduce_reasons=self.policy.reasons,
            semantics=self.semantics,
            semantics_reasons=self.semantics_reasons, **fields)
        result.histories.add(())
        result.observables.add(())
        return result

    def run(self) -> ExplorationResult:
        result = self.new_result()
        if self.run_from(self.start_nodes(), self.limits.max_nodes, result):
            result.bounded = True
        self.close_result(result)
        return result

    def run_from(self, frontier: Sequence[ExploreNode], node_budget: int,
                 result: ExplorationResult) -> List[ExploreNode]:
        """Expand up to ``node_budget`` nodes starting from ``frontier``.

        Mutates ``result`` in place and returns the *spilled* frontier
        (see :func:`~repro.semantics.search.search`).  This is the unit
        of work the parallel engine distributes; the sequential
        :meth:`run` is a single call with the full node budget.
        """

        def advance(next_config, label, event):
            if event is not None:
                hist, obs = label
                if event.is_object_event:
                    hist = hist + (event,)
                    result.histories.add(hist)
                if event.is_observable:
                    obs = obs + (event,)
                    result.add_prefixes(obs)
                label = (hist, obs)
            if next_config is None:
                # Aborted execution: trace ends here.
                result.aborted = True
                return None
            return label, (next_config, label)

        return search(frontier, node_budget, result, advance,
                      self.limits.max_depth, explorer=self,
                      pinned=_label_threads,
                      terminal=result.terminal_configs.add,
                      expand_memo=self._expand_memo)

    def _expand(self, config: Config, full: bool = False,
                sleep: FrozenSet[int] = NO_SLEEP,
                tsym_k: Optional[int] = None,
                memo: Optional[BoundedCache] = None
                ) -> Sequence[Tuple[Optional[Config], Optional[Event]]]:
        """:meth:`_successors` of ``config``, replayed from ``memo``.

        An expansion reads nothing but ``(config, full, sleep, tsym_k)``
        and the explorer's fixed policy, so ``memo`` is keyed on exactly
        these.  It stores the successors, their sleep sets, the
        ``last_expand_reduced`` / ``_last_pruned`` / ``_last_slept``
        record and the ``sym_merged`` / ``tsym_merged`` deltas; a hit
        restores the record and re-applies every counter delta, so the
        counters, the sleep-wake re-expansion and the cycle-proviso
        rollback are those of a fresh expansion.  An expansion that
        noted a new diagnostic (or raised) is not stored: it runs again
        on the next visit.
        """

        if memo is None:
            return self._successors(config, full, sleep, tsym_k)
        key = (config, full, sleep, tsym_k)
        hit = memo.get(key)
        if hit is None:
            noted = len(self.diagnostics)
            merged, tmerged = self.sym_merged, self.tsym_merged
            out = tuple(self._successors(config, full, sleep, tsym_k))
            if len(self.diagnostics) == noted:
                sleeps = self._succ_sleeps
                memo.put(key, (
                    out, None if sleeps is None else tuple(sleeps),
                    self.last_expand_reduced, self._last_pruned,
                    self._last_slept, self.sym_merged - merged,
                    self.tsym_merged - tmerged))
            return out
        (out, self._succ_sleeps, self.last_expand_reduced, pruned, slept,
         merged, tmerged) = hit
        self._last_pruned = pruned
        self._last_slept = slept
        self.por_pruned += pruned
        self.sleep_skipped += slept
        self.sym_merged += merged
        self.tsym_merged += tmerged
        return out

    def _successors(self, config: Config, full: bool,
                    sleep: FrozenSet[int], tsym_k: Optional[int]
                    ) -> List[Tuple[Optional[Config], Optional[Event]]]:
        """All successor (configuration, event) pairs of ``config``.

        With partial-order reduction active (and ``full`` false), if some
        thread's next step is invisible — no event, cannot abort — and
        touches only heap cells that thread owns (unreachable by the
        shared roots and every other thread), only that thread is
        expanded: the step commutes with everything the others can do, so
        the pruned interleavings reach the same histories, observables
        and terminal configurations through the prioritized order.

        Under ``por+sym``, *allocating* steps with a private recorded
        footprint qualify too.  Against a non-allocating step of another
        thread the two orders commute literally: such steps never change
        the heap's address domain, so the allocator's slot choice is
        identical either way, and the fresh block is unnameable by the
        other thread (pure moves cannot conjure its address).  Against
        another thread's allocation, the two orders differ only by a
        permutation of the two fresh blocks — exactly what
        :func:`canonicalize_config` merges, and since no address ever
        escapes into an event (``check_event_escape``), the history and
        observable sets coincide.  ``dispose`` (also an allocator-state
        step) commutes for the same reason: the freed block's slot is
        skipped by every later allocation either through the quarantine
        bitmask (dispose first) or through the still-live cells (dispose
        second), so both orders pick identical fresh addresses.
        """

        policy = self.policy
        por = policy.por and not full
        sleep_on = self._sleep and not full
        # What the search reads back after this call: whether POR pruned
        # (the cycle proviso then applies), how much this call added to
        # ``por_pruned`` / ``sleep_skipped`` (so a re-expansion rolls back
        # exactly this node's accounting), and the successors' sleep sets
        # (aligned with the returned list; ``None`` with sleep sets off).
        self.last_expand_reduced = False
        self._last_pruned = 0
        self._last_slept = 0
        self._succ_sleeps = None

        slept = 0
        per_thread: List[Tuple[int, tuple]] = []
        for idx, tstate in enumerate(config.threads):
            tid = idx + 1
            if sleep_on and tid in sleep:
                # Sleep-set POR: this thread's step was explored from an
                # equivalent earlier interleaving, and every edge since
                # was independent of it — skipping it here loses nothing.
                slept += 1
                continue
            try:
                succs = self._thread_successors(
                    tid, tstate, config.sigma_c, config.sigma_o, por)
            except AtomicLoopDivergence as exc:
                # Divergent atomic block: cut this transition, but
                # surface the truncation instead of dropping it silently.
                self._note_divergence(tid, exc)
                continue
            except BoundExceeded:
                # Any other bound inside a step: treat as a cut.
                continue
            if succs:
                per_thread.append((idx, succs))
        if slept:
            self.sleep_skipped += slept
            self._last_slept = slept

        if por and len(per_thread) > 1:
            owner = None
            chosen: Optional[Tuple[int, tuple]] = None
            for idx, succs in per_thread:
                if any(oc.aborted or oc.event is not None
                       for oc, _ in succs):
                    continue
                fp = succs[0][0].footprint  # shared across outcomes
                if fp is None:
                    continue
                if fp.allocates and not policy.sym:
                    # Allocation order is only commutative modulo address
                    # renaming, which needs the symmetry pass active.
                    continue
                if not footprint_in_object_heap(fp):
                    # No owner map can make this step private.
                    continue
                if owner is None:
                    owner = self._owner_of(config)
                if footprint_is_private(fp, owner, idx + 1):
                    chosen = (idx, succs)
                    break
            if chosen is not None:
                pruned = sum(len(ocs) for i, ocs in per_thread
                             if i != chosen[0])
                self.por_pruned += pruned
                self._last_pruned = pruned
                self.last_expand_reduced = True
                per_thread = [chosen]

        out: List[Tuple[Optional[Config], Optional[Event]]] = []
        succ_sleeps: Optional[List[FrozenSet[int]]] = None
        awake: Set[int] = set()
        if sleep_on:
            succ_sleeps = []
            self._succ_sleeps = succ_sleeps
            # Sleep candidates carried into every successor: the node's
            # own sleepers, joined below by already-expanded siblings.
            awake = set(sleep)
        interner = self.interner
        sym = policy.sym
        fast_sym = sym and self._fast_sym
        tsym = self._tsym
        n_threads = len(config.threads)
        if fast_sym:
            pred_sc = config.sigma_c
            pred_sc_addresses = address_items(pred_sc._data)
            roots = None  # root_bases(σ_o), once a frame needs it
        for idx, succs in per_thread:
            tid = idx + 1
            tmpl = None
            new_sleep = NO_SLEEP
            if sleep_on:
                tmpl = self._template_of(config, tid)
                if tmpl is not None and awake:
                    new_sleep = frozenset(
                        j for j in awake
                        if footprints_independent(
                            tmpl, self._template_of(config, j)))
            # Thread-identity symmetry: a step of an unpinned thread
            # (no event of it in hist/obs, so its identity is still
            # interchangeable) that emits an event is rotated so the
            # event canonically carries the next identity, k+1.
            pi = None
            if tsym is not None and tsym_k is not None \
                    and tid > tsym_k + 1:
                pi = rotation(n_threads, tsym_k, tid)
            if fast_sym:
                pred_frame = config.threads[idx].frame
                pred_addresses = frame_addresses(pred_frame)
            for outcome, expanded in succs:
                if outcome.aborted:
                    event = outcome.event
                    if pi is not None and event is not None:
                        # The abort trace is the permutation image of a
                        # real trace (obs events are pinned, π-fixed).
                        event = replace(event, thread=tsym_k + 1)
                    out.append((None, event))
                    if succ_sleeps is not None:
                        succ_sleeps.append(NO_SLEEP)
                    continue
                if sym:
                    check_event_escape(outcome.event)
                # Compiled fast path: a step whose footprint provably
                # left the sparse pointer structure of σ_o untouched
                # keeps a canonical predecessor canonical — provided the
                # frame-local and σ_c roots (which invisible compression
                # may rewrite without a footprint) kept the same sparse
                # values too; those are checked per expansion below.
                keeps = fast_sym and step_keeps_canonical(
                    outcome.footprint, config.sigma_o, outcome.sigma_o)
                for ts, sc in expanded:
                    if interner is not None:
                        ts = interner.thread_state(ts)
                    threads = (config.threads[:idx] + (ts,)
                               + config.threads[idx + 1:])
                    next_config = Config(threads, sc, outcome.sigma_o)
                    event = outcome.event
                    rotated = False
                    if pi is not None and event is not None:
                        permuted, pchanged = tsym.permute_config(
                            next_config, pi)
                        if pchanged is not None:
                            # Rotation applied: the stepping thread now
                            # owns identity k+1 and the event is renamed
                            # to match; on a bail (pchanged None) the
                            # original attribution is kept — sound, just
                            # less merging.
                            next_config = permuted
                            event = replace(event, thread=tsym_k + 1)
                            rotated = True
                            if pchanged:
                                self.tsym_merged += 1
                    if sym:
                        canonical = False
                        if keeps and not rotated:
                            frame = ts.frame
                            covered = frame is pred_frame
                            if not covered:
                                addresses = frame_addresses(frame)
                                covered = addresses == pred_addresses
                                if not covered:
                                    if roots is None:
                                        roots = root_bases(config.sigma_o)
                                    covered = frame_change_covered(
                                        pred_addresses, addresses, roots)
                            canonical = covered and (
                                sc is pred_sc
                                or address_items(sc._data)
                                == pred_sc_addresses)
                        if not canonical:
                            next_config, changed = self._canonical(
                                next_config)
                            if changed:
                                self.sym_merged += 1
                    if interner is not None:
                        next_config = interner.config(next_config)
                    out.append((next_config, event))
                    if succ_sleeps is not None:
                        succ_sleeps.append(
                            frozenset(pi[j] for j in new_sleep)
                            if rotated and new_sleep else new_sleep)
            if sleep_on and tmpl is not None and all(
                    not oc.aborted and oc.event is None
                    for oc, _ in succs):
                # This thread's step is a proven-invisible template step:
                # later siblings' successors may sleep it (the (sibling
                # then this) order is equivalent to the (this then
                # sibling) order just scheduled for exploration).
                awake.add(tid)
        return out


def explore(program: Program, limits: Optional[Limits] = None,
            engine=None) -> ExplorationResult:
    """Explore ``program`` with the selected engine.

    ``engine`` is anything :func:`repro.engine.resolve_engine` accepts:
    ``None``/``"sequential"`` (default, the exact single-process search),
    ``"parallel"`` (work-stealing multiprocess driver; same history and
    observable sets), ``"random-walk"`` (seeded sampling; result carries
    ``exhaustive=False``), or an :class:`repro.engine.EngineSpec`.
    """

    # Imported lazily: repro.engine builds on this module.
    from ..engine.api import resolve_engine
    from ..engine.dispatch import dispatch_explore

    return dispatch_explore(program, limits, resolve_engine(engine))


def _label_threads(label) -> Set[int]:
    """Threads an event of the node's history or trace has pinned."""

    hist, obs = label
    return {e.thread for e in hist} | {e.thread for e in obs}
