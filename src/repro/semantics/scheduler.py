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
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

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
    rotation,
    # Unused here: kept importable for the benchmark tracer's wrap (see
    # its docstring).
    step_keeps_canonical,
)
from .events import Event, Trace
from .search import (
    NO_SLEEP,
    BoundedCache,
    Expansion,
    Node,
    SearchStats,
    search,
)
from .thread import (
    Frame,
    StepOutcome,
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

#: Entries held by the per-explorer ownership-closure memo before it is
#: cleared wholesale (see :class:`~repro.semantics.search.BoundedCache`
#: and :func:`repro.reduce.ownership.compute_owner`).
_CLOSURE_MEMO_CAP = 1 << 15

#: Entries held by the per-explorer address-shape memo (see
#: :meth:`Explorer._canonical`): many configurations share one heap
#: shape, and the canonical renaming of a shape never changes.
_SHAPE_MEMO_CAP = 1 << 16

#: Entries held by the per-explorer step memo (see
#: :meth:`Explorer._thread_successors`).
_STEP_MEMO_CAP = 1 << 15

#: Entries held by the per-explorer expansion memo (see
#: :meth:`Explorer.expander`), which only the explore client fills.
_EXPAND_MEMO_CAP = 1 << 13

#: Whether an explorer hash-conses the stores, frames, thread states and
#: configurations it builds (see :meth:`Explorer._thread_successors`);
#: off, the run is the unshared oracle.
_INTERN = True


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
    / ``"por+sym"`` / ``"por+sym+tsym"``; ``None`` means the default,
    everything on — see :mod:`repro.reduce`).  The requested mode is
    filtered against the program's static eligibility, so the explored
    history and observable-trace sets are always exactly those of the
    unreduced search.
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
        self.interner: Optional[Interner] = Interner() if _INTERN else None

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

        # Ownership and canonicalization read the stores and frame
        # locals, never a control: both are memoized on the heap shape,
        # the same way under either semantics (see
        # :func:`~repro.reduce.ownership.compute_owner` and
        # :meth:`_canonical`).
        self._closure_memo = BoundedCache(_CLOSURE_MEMO_CAP)
        self._shape_memo = BoundedCache(_SHAPE_MEMO_CAP)
        # A thread's successors depend only on its own state and the
        # stores, never on the other threads: memoized on exactly those
        # (see :meth:`_thread_successors`).
        self._step_memo = BoundedCache(_STEP_MEMO_CAP)
        # A node's expansion depends only on its configuration and the
        # reduction context, not on its label: the explore client, which
        # reaches one configuration under many (history, trace) labels,
        # replays it (see :meth:`expander`).
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
        walk.  The stored σ_o' and every rebuilt component are the run's
        canonical instances.

        Under ``sym`` this is the explorer's one canonicalization path:
        every start node and every successor goes through it, the same
        way under either step semantics.
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
            moved_frames = tuple(
                (idx, frame_addresses(new.frame))
                for idx, (new, old) in enumerate(zip(canon.threads, threads))
                if new is not old)
            moved_c = (None if canon.sigma_c is sigma_c
                       else address_items(canon.sigma_c._data))
            if changed:
                canon = self._intern_parts(canon)
            memo.put(key, (changed, canon.sigma_o, moved_frames, moved_c))
            return canon, changed
        changed, sigma_o, moved_frames, moved_c = hit
        if not changed:
            return config, False
        interner = self.interner
        if moved_frames:
            threads = list(threads)
            for idx, moved in moved_frames:
                tstate = threads[idx]
                frame = tstate.frame
                tstate = ThreadState(
                    control=tstate.control,
                    frame=Frame(locals=frame.locals.set_many(moved),
                                retvar=frame.retvar,
                                caller_control=frame.caller_control,
                                method=frame.method))
                if interner is not None:
                    tstate = interner.thread_state(tstate)
                threads[idx] = tstate
            threads = tuple(threads)
        if moved_c is not None:
            sigma_c = sigma_c.set_many(moved_c)
            if interner is not None:
                sigma_c = interner.value(sigma_c)
        return Config(threads, sigma_c, sigma_o), True

    def _intern_parts(self, config: "Config") -> "Config":
        """``config`` rebuilt from the run's canonical thread states,
        σ_c and σ_o (itself when the explorer does not intern)."""

        interner = self.interner
        if interner is None:
            return config
        value = interner.value
        return Config(tuple([interner.thread_state(t)
                             for t in config.threads]),
                      value(config.sigma_c), value(config.sigma_o))

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

        A miss interns each outcome's thread state and stores and each
        expansion's thread state and σ_c, so the memo holds and every hit
        hands out the run's canonical instances, and a successor only has
        its :class:`Config` left to intern.
        """

        key = (tid, tstate, sigma_c, sigma_o, por)
        memo = self._step_memo
        hit = memo.get(key)
        if hit is None:
            visible = self._visible
            interner = self.interner
            outcomes = []
            for oc in self._step(tstate, tid, sigma_c, sigma_o, por,
                                 self.policy.alloc):
                if oc.aborted:
                    outcomes.append((oc, None))
                    continue
                if interner is not None:
                    value = interner.value
                    ts = interner.thread_state(oc.thread_state)
                    sc = value(oc.sigma_c)
                    so = value(oc.sigma_o)
                    if ts is not oc.thread_state or sc is not oc.sigma_c \
                            or so is not oc.sigma_o:
                        oc = StepOutcome(ts, sc, so, oc.event, oc.footprint)
                expanded = visible(oc.thread_state, oc.sigma_c, oc.sigma_o)
                if interner is not None:
                    expanded = [(interner.thread_state(ts), value(sc))
                                for ts, sc in expanded]
                outcomes.append((oc, expanded))
            hit = memo.put(key, tuple(outcomes))
        return hit

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
        symmetric initial configurations dedup to one node (no result
        counts these merges: ``sym_merged`` counts successors).
        """

        nodes: List[ExploreNode] = []
        seen: Set[tuple] = set()
        label = ((), ())
        for start in self.initial_nodes():
            if self.policy.sym:
                start, _changed = self._canonical(start)
            if self.interner is not None:
                start = self.interner.config(self._intern_parts(start))
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

        return search(frontier, node_budget, result,
                      max_depth=self.limits.max_depth,
                      **self.hooks(result, _label_threads,
                                   self._expand_memo))

    def hooks(self, result: ExplorationResult,
              pinned: Optional[Callable] = None,
              memo: Optional[BoundedCache] = None) -> dict:
        """The search hooks of a run into ``result``, shared by
        :meth:`run_from` and the random walk
        (:func:`~repro.semantics.search.walk`): the label is the node's
        (history, observable trace), every reached one is recorded, and
        ``expand`` is :meth:`expander` ``(pinned, memo)``."""

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

        return {"advance": advance, "expand": self.expander(pinned, memo),
                "terminal": result.terminal_configs.add}

    def expander(self, pinned: Optional[Callable] = None,
                 memo: Optional[BoundedCache] = None) -> Callable:
        """The search's ``expand(config, label, sleep, full)`` hook: the
        :class:`~repro.semantics.search.Expansion` of ``config`` (see
        :meth:`_successors`), replayed from ``memo``.

        ``pinned(label)`` names the threads an event of the node pinned;
        without it (a walk) no successor is rotated and no sleep set is
        computed, since a walk runs every node awake.  An expansion
        reads nothing but ``(config, full, sleep, tsym_k)``, whether
        there is a ``pinned`` and the explorer's fixed policy, and it is
        a value, so ``memo`` (one expander's own) stores the record
        itself, keyed on the first four; a hit is the fresh expansion.
        """

        successors = self._successors
        tsym = self._tsym if pinned is not None else None
        sleep_sets = self._sleep and pinned is not None

        def expand(config, label, sleep=NO_SLEEP, full=False):
            tsym_k = None
            if tsym is not None:
                threads = pinned(label)
                k = len(threads)
                # Rotate only while the canonical-pinning invariant
                # (event-emitting threads are exactly 1..k) holds — a
                # permutation bail on an ancestor may have broken it,
                # and rotating then would rename a pinned identity.
                if not threads or max(threads) == k:
                    tsym_k = k
            if memo is None:
                return successors(config, full, sleep, tsym_k, sleep_sets)
            key = (config, full, sleep, tsym_k)
            hit = memo.get(key)
            if hit is None:
                hit = memo.put(key, successors(config, full, sleep, tsym_k,
                                               sleep_sets))
            return hit

        return expand

    def _successors(self, config: Config, full: bool,
                    sleep: FrozenSet[int], tsym_k: Optional[int],
                    sleep_sets: bool) -> Expansion:
        """All successor (configuration, event) pairs of ``config``, as
        an :class:`~repro.semantics.search.Expansion`; with
        ``sleep_sets`` (and ``full`` false) the successors' sleep sets
        too.

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
        sleep_on = sleep_sets and not full
        slept = pruned = merged = tmerged = 0
        cuts: Tuple[str, ...] = ()
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
                cuts += (f"thread {tid}: {exc}",)
                continue
            except BoundExceeded:
                # Any other bound inside a step: treat as a cut.
                continue
            if succs:
                per_thread.append((idx, succs))

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
                    owner = compute_owner(config, policy, self._closure_memo)
                if footprint_is_private(fp, owner, idx + 1):
                    chosen = (idx, succs)
                    break
            if chosen is not None:
                pruned = sum(len(ocs) for i, ocs in per_thread
                             if i != chosen[0])
                per_thread = [chosen]

        out: List[Tuple[Optional[Config], Optional[Event]]] = []
        succ_sleeps: Optional[List[FrozenSet[int]]] = None
        awake: Set[int] = set()
        if sleep_on:
            succ_sleeps = []
            # Sleep candidates carried into every successor: the node's
            # own sleepers, joined below by already-expanded siblings.
            awake = set(sleep)
        interner = self.interner
        sym = policy.sym
        tsym = self._tsym
        n_threads = len(config.threads)
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
                for ts, sc in expanded:
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
                            event = replace(event, thread=tsym_k + 1)
                            rotated = True
                            if pchanged:
                                next_config = self._intern_parts(permuted)
                                tmerged += 1
                    if sym:
                        next_config, changed = self._canonical(next_config)
                        if changed:
                            merged += 1
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
        return Expansion(
            tuple(out), None if succ_sleeps is None else tuple(succ_sleeps),
            pruned, slept, merged, tmerged, cuts)


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
