"""The generated-code NRE query kernel: the one search on CSR graphs.

A generic product search walks every automaton through one interpreter
loop: per drained state it unpacks move tuples, iterates hop lists, and
rebinds buffers — dispatch that is pure overhead once the automaton is
fixed.  This module removes that dispatch the way query compilers do
when they lower automata to code: each
:class:`~repro.graph.automaton.CompiledAutomaton` is lowered **once** to
a specialized Python source string in which

* the per-state dispatch is unrolled into direct ``if state == k:``
  branches, one per *live* state (states reachable from the start state
  through non-ε moves — dead states get no code at all);
* every move is straight-line code over its own label-resolved CSR
  buffer locals (``o3``/``g3``), with the flat-config bases
  (``state × |V|``) hoisted and the degree-1 fast path inlined;
* nested ``[·]`` tests become calls to memoised helper closures passed
  in as ``tests[k]`` — the memo lives in the driving
  :class:`CodegenSearch`, shared across every caller of the same
  sub-automaton;
* the three query modes get three *separate* functions — ``collect``,
  ``nonempty``, ``holds`` — so mode checks vanish from the hot loop and
  each variant keeps its own early exits (``nonempty`` returns on the
  first edge into an accepting state without even marking it visited;
  ``holds`` tests the target at insert time).

Multi-source queries (all-pairs, batched sources) do not run one
``collect`` per source: :meth:`CodegenSearch.collect_many` walks the
product graph once for all of them over the same plan and buffer
bindings, finishing strongly connected components in reverse
topological order so sources that reach one closure share its answer
set.

The source is generated from the deterministic :class:`_Plan` and
compiled with :func:`compile`/``exec`` once per process and automaton;
neither the source nor the executed program is ever persisted, so the
on-disk :mod:`repro.graph.autocache` carries no executable code.

Every query on a frozen CSR graph runs here; dict-backed graphs run the
generic product BFS of :class:`repro.graph.automaton._Runner`.  Answers
equal the set-algebraic reference evaluator on every query — pinned by
the backend differential suite in
``tests/test_properties/test_kernel_properties.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.graph.automaton import CompiledAutomaton


@dataclass(frozen=True)
class _Plan:
    """The deterministic lowering plan shared by generator and binder.

    Everything the generated code's *caller* must reproduce —
    buffer order, nested-test order — is derived from this one
    structure, so the generated source and its binder always agree.
    """

    live: tuple[int, ...]  # live state ids, dense index = position
    accepting: tuple[bool, ...]  # per dense index
    moves: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    # per dense index: ((buffer_index, dense_targets), ...)
    checks: tuple[tuple[tuple[int, int], ...], ...]
    # per dense index: ((test_index, dense_target), ...)
    buffers: tuple[tuple[str, str], ...]  # (label, "fwd"|"bwd") per buffer
    tests: tuple["CompiledAutomaton", ...]  # sub-automata by test index


def _plan_for(compiled: "CompiledAutomaton") -> _Plan:
    """Compute the lowering plan (memoised on the automaton instance).

    Live-state discovery is a BFS from the start state over non-ε move
    and test targets, in the automaton's own (deterministic, pickled)
    iteration order — the same walk :func:`source_for` compiles and
    :class:`CodegenSearch` binds.
    """
    cached = compiled.__dict__.get("_codegen_plan")
    if cached is not None:
        return cached
    dense: dict[int, int] = {compiled.start: 0}
    order: list[int] = [compiled.start]
    cursor = 0
    while cursor < len(order):
        state = order[cursor]
        cursor += 1
        for targets in compiled.fwd[state].values():
            for target in targets:
                if target not in dense:
                    dense[target] = len(order)
                    order.append(target)
        for targets in compiled.bwd[state].values():
            for target in targets:
                if target not in dense:
                    dense[target] = len(order)
                    order.append(target)
        for _nested, target in compiled.tests[state]:
            if target not in dense:
                dense[target] = len(order)
                order.append(target)
    buffer_index: dict[tuple[str, str], int] = {}
    tests: list["CompiledAutomaton"] = []
    moves: list[tuple[tuple[int, tuple[int, ...]], ...]] = []
    checks: list[tuple[tuple[int, int], ...]] = []
    for state in order:
        state_moves: list[tuple[int, tuple[int, ...]]] = []
        for direction, table in (("fwd", compiled.fwd[state]), ("bwd", compiled.bwd[state])):
            for lab, targets in table.items():
                key = (lab, direction)
                index = buffer_index.setdefault(key, len(buffer_index))
                state_moves.append((index, tuple(dense[t] for t in targets)))
        state_checks: list[tuple[int, int]] = []
        for nested, target in compiled.tests[state]:
            state_checks.append((len(tests), dense[target]))
            tests.append(nested)
        moves.append(tuple(state_moves))
        checks.append(tuple(state_checks))
    plan = _Plan(
        live=tuple(order),
        accepting=tuple(compiled.accepting[s] for s in order),
        moves=tuple(moves),
        checks=tuple(checks),
        buffers=tuple(key for key, _ in sorted(buffer_index.items(), key=lambda kv: kv[1])),
        tests=tuple(tests),
    )
    object.__setattr__(compiled, "_codegen_plan", plan)
    return plan


# --------------------------------------------------------------------- #
# Source generation
# --------------------------------------------------------------------- #


def _cfg(dense: int, expr: str) -> str:
    """The flat-config expression ``dense × |V| + expr``, base folded."""
    return expr if dense == 0 else f"b{dense} + {expr}"


def _emit_prologue(lines: list[str], plan: _Plan, mode: str) -> None:
    """Shared function prologue: buffer locals, bases, seen, worklist."""
    emit = lines.append
    if plan.buffers:
        unpack = ", ".join(f"(o{i}, g{i})" for i in range(len(plan.buffers)))
        emit(f"    {unpack}, = b")
    for index in range(len(plan.tests)):
        emit(f"    t{index} = tests[{index}]")
    state_count = len(plan.live)
    emit(f"    seen = bytearray({state_count} * V)")
    for dense in range(1, state_count):
        emit(f"    b{dense} = {dense} * V" if dense > 1 else f"    b{dense} = V")
    emit("    seen[src] = 1")
    emit(f"    pending = [None] * {state_count}")
    emit("    pending[0] = [src]")
    emit("    active = [0]")
    emit("    active_append = active.append")
    if mode == "collect":
        emit("    hit_mask = bytearray(V)")
        emit("    hits = []")
        emit("    hits_append = hits.append")


def _emit_move(
    lines: list[str],
    buffer: int,
    dense_target: int,
    plan: _Plan,
    mode: str,
    pad: str,
) -> None:
    """One move's inlined CSR expansion into ``w{dense_target}``."""
    emit = lines.append
    accepting = plan.accepting[dense_target]
    if mode == "nonempty" and accepting:
        # Any successor at all lands in an accepting state: the verdict
        # is settled without touching the visited map.
        emit(f"{pad}for n in batch:")
        emit(f"{pad}    if o{buffer}[n] != o{buffer}[n + 1]:")
        emit(f"{pad}        return True")
        return
    found = mode == "holds" and accepting
    emit(f"{pad}a = w{dense_target}.append")
    emit(f"{pad}for n in batch:")
    emit(f"{pad}    lo = o{buffer}[n]; hi = o{buffer}[n + 1]")
    emit(f"{pad}    if lo != hi:")
    emit(f"{pad}        if hi - lo == 1:")
    emit(f"{pad}            t = g{buffer}[lo]")
    emit(f"{pad}            c = {_cfg(dense_target, 't')}")
    emit(f"{pad}            if not seen[c]:")
    emit(f"{pad}                seen[c] = 1")
    if found:
        emit(f"{pad}                if t == tgt:")
        emit(f"{pad}                    return True")
    emit(f"{pad}                a(t)")
    emit(f"{pad}        else:")
    emit(f"{pad}            for t in g{buffer}[lo:hi]:")
    emit(f"{pad}                c = {_cfg(dense_target, 't')}")
    emit(f"{pad}                if not seen[c]:")
    emit(f"{pad}                    seen[c] = 1")
    if found:
        emit(f"{pad}                    if t == tgt:")
        emit(f"{pad}                        return True")
    emit(f"{pad}                    a(t)")


def _emit_check(
    lines: list[str],
    test_index: int,
    dense_target: int,
    plan: _Plan,
    mode: str,
    pad: str,
) -> None:
    """One nested test's memoised-helper call into ``w{dense_target}``."""
    emit = lines.append
    accepting = plan.accepting[dense_target]
    if mode == "nonempty" and accepting:
        emit(f"{pad}for n in batch:")
        emit(f"{pad}    if t{test_index}(n):")
        emit(f"{pad}        return True")
        return
    found = mode == "holds" and accepting
    emit(f"{pad}a = w{dense_target}.append")
    emit(f"{pad}for n in batch:")
    emit(f"{pad}    c = {_cfg(dense_target, 'n')}")
    emit(f"{pad}    if not seen[c] and t{test_index}(n):")
    emit(f"{pad}        seen[c] = 1")
    if found:
        emit(f"{pad}        if n == tgt:")
        emit(f"{pad}            return True")
    emit(f"{pad}        a(n)")


def _emit_state(lines: list[str], dense: int, plan: _Plan, mode: str) -> None:
    """One live state's drain branch inside the dispatch chain."""
    emit = lines.append
    keyword = "if" if dense == 0 else "elif"
    emit(f"        {keyword} state == {dense}:")
    pad = "            "
    body_open = len(lines)
    if plan.accepting[dense] and mode == "collect":
        emit(f"{pad}for n in batch:")
        emit(f"{pad}    if not hit_mask[n]:")
        emit(f"{pad}        hit_mask[n] = 1")
        emit(f"{pad}        hits_append(n)")
    # Which states does this branch insert into?  One staging list per
    # target, flushed into the shared worklist after all moves ran.
    inserts: list[int] = []
    for _buffer, dense_targets in plan.moves[dense]:
        for target in dense_targets:
            skip = mode == "nonempty" and plan.accepting[target]
            if not skip and target not in inserts:
                inserts.append(target)
    for _test_index, target in plan.checks[dense]:
        skip = mode == "nonempty" and plan.accepting[target]
        if not skip and target not in inserts:
            inserts.append(target)
    for target in inserts:
        emit(f"{pad}w{target} = []")
    for buffer, dense_targets in plan.moves[dense]:
        for target in dense_targets:
            _emit_move(lines, buffer, target, plan, mode, pad)
    for test_index, target in plan.checks[dense]:
        _emit_check(lines, test_index, target, plan, mode, pad)
    for target in inserts:
        emit(f"{pad}if w{target}:")
        emit(f"{pad}    q = pending[{target}]")
        emit(f"{pad}    if q is None:")
        emit(f"{pad}        pending[{target}] = w{target}")
        emit(f"{pad}        active_append({target})")
        emit(f"{pad}    else:")
        emit(f"{pad}        q.extend(w{target})")
    if len(lines) == body_open:
        emit(f"{pad}pass")


def _emit_function(plan: _Plan, mode: str) -> list[str]:
    """Emit one mode's full function definition."""
    lines: list[str] = []
    emit = lines.append
    if mode == "holds":
        emit("def holds(src, tgt, V, b, tests):")
    else:
        emit(f"def {mode}(src, V, b, tests):")
    if mode == "nonempty" and plan.accepting[0]:
        # ε ∈ L: every in-graph source trivially reaches itself.
        emit("    return True")
        return lines
    if mode == "holds" and plan.accepting[0]:
        emit("    if src == tgt:")
        emit("        return True")
    _emit_prologue(lines, plan, mode)
    emit("    while active:")
    emit("        state = active.pop()")
    emit("        batch = pending[state]")
    emit("        if batch is None:")
    emit("            continue")
    emit("        pending[state] = None")
    for dense in range(len(plan.live)):
        if mode == "nonempty" and plan.accepting[dense]:
            # Unreachable: inserts into accepting states returned already
            # and the (non-accepting, checked above) start state is dense 0.
            continue
        _emit_state(lines, dense, plan, mode)
    if mode == "collect":
        emit("    return hits")
    else:
        emit("    return False")
    return lines


def source_for(compiled: "CompiledAutomaton") -> str:
    """Return the specialized module source for ``compiled``.

    The string is pure metadata plus three function definitions — no
    imports, no captured objects.  It is regenerated on every call;
    :func:`program_for` calls this once per process and automaton.
    """
    plan = _plan_for(compiled)
    lines = [
        f"BUFFERS = {plan.buffers!r}",
        f"TEST_COUNT = {len(plan.tests)}",
        f"STATE_COUNT = {len(plan.live)}",
    ]
    for mode in ("collect", "nonempty", "holds"):
        lines.append("")
        lines.extend(_emit_function(plan, mode))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CodegenProgram:
    """The executed form of one automaton's generated module."""

    collect: object  # (src, V, b, tests) -> list[int]
    nonempty: object  # (src, V, b, tests) -> bool
    holds: object  # (src, tgt, V, b, tests) -> bool
    plan: _Plan


def program_for(compiled: "CompiledAutomaton") -> CodegenProgram:
    """Generate, compile and exec the source (once per process/instance).

    The source always comes from :func:`source_for` in this process; the
    code object and function objects are never pickled.
    """
    cached = compiled.__dict__.get("_codegen_program")
    if cached is not None:
        return cached
    namespace: dict = {"__builtins__": __builtins__}
    code = compile(
        source_for(compiled), f"<nre-codegen-{compiled.cache_key}>", "exec"
    )
    exec(code, namespace)  # noqa: S102 - our own generated source
    program = CodegenProgram(
        collect=namespace["collect"],
        nonempty=namespace["nonempty"],
        holds=namespace["holds"],
        plan=_plan_for(compiled),
    )
    object.__setattr__(compiled, "_codegen_program", program)
    return program


class CodegenSearch:
    """Drives generated-code searches over one frozen CSR backend.

    Owned by a :class:`~repro.graph.automaton._Runner`, holding the
    per-graph buffer bindings and the nested-test memo tables.
    ``stats`` is the runner's duck-typed counter object (may be
    ``None``).
    """

    def __init__(self, csr, stats: object | None = None):
        self.csr = csr
        self.stats = stats
        # automaton cache_key -> (buffers tuple, tests tuple) with this
        # graph's CSR list buffers bound in the plan's buffer order.
        self._bound: dict[int, tuple] = {}
        # automaton cache_key -> {node_id: bool} nested-test memo.
        self._memo: dict[int, dict[int, bool]] = {}
        # Shared all-zero offsets for labels absent from the graph: the
        # generated loops read ``o[n]``/``o[n+1]`` unconditionally.
        self._zeros: list[int] | None = None

    # ------------------------------------------------------------------ #
    # Public modes (the _Runner entry points)
    # ------------------------------------------------------------------ #

    def collect(self, compiled: "CompiledAutomaton", source_id: int) -> list[int]:
        """Accepted node ids reachable from ``source_id`` (unordered)."""
        program = program_for(compiled)
        buffers, tests = self._binding(compiled, program)
        return program.collect(source_id, self.csr.node_count(), buffers, tests)

    def nonempty(self, compiled: "CompiledAutomaton", source_id: int) -> bool:
        """Whether any node is reachable — the nested-test question."""
        program = program_for(compiled)
        buffers, tests = self._binding(compiled, program)
        return program.nonempty(source_id, self.csr.node_count(), buffers, tests)

    def holds(
        self, compiled: "CompiledAutomaton", source_id: int, target_id: int
    ) -> bool:
        """Single-pair mode with insert-time early exit on the target."""
        program = program_for(compiled)
        buffers, tests = self._binding(compiled, program)
        return program.holds(
            source_id, target_id, self.csr.node_count(), buffers, tests
        )

    def collect_many(
        self, compiled: "CompiledAutomaton", source_ids: list[int]
    ) -> list[frozenset[int]]:
        """Accepted node ids per source, sharing work across sources.

        One iterative Tarjan pass over the product graph reachable from
        every ``(source, start)`` config.  Strongly connected components
        complete in reverse topological order, so each component's
        answer set is its own accepted nodes plus the union of the
        already-final sets of the components it reaches.  When the
        largest of those sets already holds the rest, the component
        reuses that set object, so the sources feeding one closure share
        it instead of each re-walking it (the all-pairs shape).  Each
        product config and edge is visited once, whatever the number of
        sources.
        """
        plan = _plan_for(compiled)
        buffers, tests = self._binding(compiled, program_for(compiled))
        node_count = self.csr.node_count()
        accepting = plan.accepting
        # States without moves or tests (the usual final states) never get
        # a config: a step into an accepting one adds its node straight to
        # the stepping config's hits, a step into any other one is dropped.
        sink = [not m and not c for m, c in zip(plan.moves, plan.checks)]

        def split(dense_targets: tuple[int, ...]) -> tuple[tuple[int, ...], bool]:
            bases = tuple(t * node_count for t in dense_targets if not sink[t])
            return bases, any(sink[t] and accepting[t] for t in dense_targets)

        moves = [
            tuple((*buffers[b], *split(targets)) for b, targets in state_moves)
            for state_moves in plan.moves
        ]
        checks = [
            tuple((tests[index], *split((t,))) for index, t in state_checks)
            for state_checks in plan.checks
        ]

        def expand(config: int) -> tuple[list[int], list[int]]:
            """``config``'s successor configs and directly accepted nodes."""
            state, node = divmod(config, node_count)
            out: list[int] = []
            hits: list[int] = [node] if accepting[state] else []
            for offsets, targets, bases, hit in moves[state]:
                lo = offsets[node]
                hi = offsets[node + 1]
                if lo != hi:
                    hop = targets[lo:hi]
                    if hit:
                        hits.extend(hop)
                    for base in bases:
                        out.extend([base + t for t in hop] if base else hop)
            for test, bases, hit in checks[state]:
                if test(node):
                    if hit:
                        hits.append(node)
                    out.extend([base + node for base in bases])
            return out, hits

        def union(sets: list, own: list[int]) -> frozenset[int]:
            """Union of ``sets`` (``None`` and empty entries skipped) plus
            ``own``; the largest set is returned as is when it already
            holds everything, so nested closures share one object."""
            distinct = list({id(answer): answer for answer in sets if answer}.values())
            if not distinct:
                return frozenset(own) if own else empty
            big = max(distinct, key=len)
            if big.issuperset(own) and all(answer <= big for answer in distinct):
                return big
            return big.union(own, *distinct)

        size = len(plan.live) * node_count
        order = [0] * size  # DFS discovery number; 0 = unvisited
        low = [0] * size
        result: list = [None] * size  # final answer set; None = open
        tarjan: list[int] = []  # configs of open components
        waiting: dict[int, tuple] = {}  # open non-root config -> expansion
        empty: frozenset[int] = frozenset()
        counter = 0
        for source in source_ids:
            if order[source]:
                continue
            counter += 1
            order[source] = low[source] = counter
            succs, hits = expand(source)
            if not succs:  # a leaf is its own finished component
                result[source] = frozenset(hits) if hits else empty
                continue
            tarjan.append(source)
            frames = [[source, succs, hits, 0]]
            while frames:
                frame = frames[-1]
                config, succs, hits, position = frame
                if position < len(succs):
                    frame[3] = position + 1
                    nxt = succs[position]
                    if not order[nxt]:
                        counter += 1
                        order[nxt] = low[nxt] = counter
                        nxt_succs, nxt_hits = expand(nxt)
                        if not nxt_succs:
                            result[nxt] = frozenset(nxt_hits) if nxt_hits else empty
                            continue
                        tarjan.append(nxt)
                        frames.append([nxt, nxt_succs, nxt_hits, 0])
                    elif result[nxt] is None and order[nxt] < low[config]:
                        low[config] = order[nxt]
                    continue
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    if low[config] < low[parent]:
                        low[parent] = low[config]
                if low[config] != order[config]:
                    waiting[config] = (succs, hits)
                    continue
                # ``config`` roots a component: its members are the open
                # configs above it; every other open config is an ancestor.
                # Members' own entries in ``result`` are still ``None``.
                if tarjan[-1] == config:
                    tarjan.pop()
                    result[config] = union([result[nxt] for nxt in succs], hits)
                    continue
                members = [tarjan.pop()]
                while members[-1] != config:
                    members.append(tarjan.pop())
                reached = [result[nxt] for nxt in succs]
                for member in members[:-1]:
                    member_succs, member_hits = waiting.pop(member)
                    reached.extend([result[nxt] for nxt in member_succs])
                    hits.extend(member_hits)
                answer = union(reached, hits)
                for member in members:
                    result[member] = answer
        return [result[source] for source in source_ids]

    # ------------------------------------------------------------------ #
    # Binding
    # ------------------------------------------------------------------ #

    def _binding(
        self, compiled: "CompiledAutomaton", program: CodegenProgram
    ) -> tuple:
        key = compiled.cache_key
        bound = self._bound.get(key)
        if bound is None:
            csr = self.csr
            buffers = []
            for lab, direction in program.plan.buffers:
                lists = (
                    csr.forward_lists(lab)
                    if direction == "fwd"
                    else csr.backward_lists(lab)
                )
                if lists is None:
                    if self._zeros is None:
                        self._zeros = [0] * (csr.node_count() + 1)
                    lists = (self._zeros, ())
                buffers.append(lists)
            tests = tuple(
                self._make_test(nested) for nested in program.plan.tests
            )
            bound = self._bound[key] = (tuple(buffers), tests)
        return bound

    def _make_test(self, nested: "CompiledAutomaton"):
        """A memoised nested-test closure over this graph's binding."""
        memo = self._memo.setdefault(nested.cache_key, {})
        stats = self.stats
        memo_get = memo.get
        run = self.nonempty

        def test(node_id: int) -> bool:
            verdict = memo_get(node_id)
            if verdict is None:
                if stats is not None:
                    stats.nested_tests += 1  # type: ignore[attr-defined]
                verdict = memo[node_id] = run(nested, node_id)
            elif stats is not None:
                stats.nested_test_cache_hits += 1  # type: ignore[attr-defined]
            return verdict

        return test


def preview_source(expr_or_automaton) -> str:
    """Return the generated source for an NRE or compiled automaton.

    Debugging/teaching helper (used by the docs): accepts an NRE node,
    an :class:`~repro.graph.automaton.NREAutomaton`, or a
    :class:`~repro.graph.automaton.CompiledAutomaton`.

    >>> from repro.graph.parser import parse_nre
    >>> src = preview_source(parse_nre("a . b"))
    >>> "def collect" in src and "def holds" in src
    True
    """
    from repro.graph.automaton import NREAutomaton, compile_nre
    from repro.graph.nre import NRE

    if isinstance(expr_or_automaton, NRE):
        expr_or_automaton = compile_nre(expr_or_automaton)
    if isinstance(expr_or_automaton, NREAutomaton):
        expr_or_automaton = expr_or_automaton.compiled()
    return source_for(expr_or_automaton)
