"""Differential properties of the storage backends (csr ≡ dict ≡ reference).

Frozen CSR graphs answer NRE queries through the generated-code kernel
(:mod:`repro.graph.codegen`); dict-backed graphs through the generic
product BFS of :mod:`repro.graph.automaton`.  Both must be
answer-identical to the set-algebraic reference evaluator
(:mod:`repro.graph.eval`).  Pinned here over random graphs × random NREs
and over random chase runs:

* **query differential**: both storage backends of
  :class:`~repro.engine.query.QueryEngine` return the reference answers —
  all-pairs, single-source, single-pair (each of the kernel's generated
  ``collect``/``holds`` functions has its own early exits), and the
  batched multi-source entry point (on csr one search shared by every
  source, finishing strongly connected product components once);
* **numpy-absent fallback**: with ``repro.kernels.NUMPY`` masked, CSR
  buffers are built as :class:`array.array` and the trigger matcher's
  self-join takes its pure-Python path; queries, the egd chase and the
  sameAs construction give identical results, including the violation
  picked as a failure witness;
* **sameAs strategy differential**: the union-find saturation strategy
  produces *byte-identical* output to the journal-order oracle it
  replaced — same graph content, same serialized document bytes.

The mask is one attribute (``repro.kernels.NUMPY``) because all numpy
access in the library routes through :func:`repro.kernels.get_numpy`.
"""

import json
import os
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.chase.egd_chase import chase_with_egds
from repro.chase.pattern_chase import chase_pattern
from repro.chase.sameas_chase import saturate_sameas, solve_with_sameas
from repro.engine.query import QueryEngine, ReferenceEngine
from repro.io.json_io import graph_to_dict
from repro.mappings.parser import parse_sameas
from repro.mappings.sameas import SAME_AS_LABEL
from repro.patterns.rep import canonical_instantiation
from repro.scenarios.flights import flights_st_tgd, hotel_egd, hotel_sameas
from repro.scenarios.generators import (
    random_flights_instance,
    random_graph,
    random_nre,
)

ALPHABET = ("a", "b", "c")

BACKENDS = ("dict", "csr")

_hotel_sameas_constraint = hotel_sameas()
_symmetry_constraint = parse_sameas("(x, sameAs, y) -> (y, sameAs, x)")
_transitivity_constraint = parse_sameas(
    "(x, sameAs, y), (y, sameAs, z) -> (x, sameAs, z)"
)


def _chased_graph(instance):
    """Steps (i)–(ii) of the sameAs construction: chase, then instantiate."""
    pattern = chase_pattern(
        [flights_st_tgd()], instance, alphabet={"f", "h"}
    ).pattern
    return canonical_instantiation(pattern, alphabet=pattern.alphabet).graph


@st.composite
def graphs(draw, max_nodes=6, max_edges=12):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = draw(st.integers(min_value=0, max_value=max_edges))
    return random_graph(nodes, edges, alphabet=ALPHABET, rng=random.Random(seed))


@st.composite
def nres(draw, max_depth=3):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    return random_nre(depth=depth, alphabet=ALPHABET, rng=random.Random(seed))


@st.composite
def flight_instances(draw):
    seed = draw(st.integers(min_value=0, max_value=100_000))
    flights = draw(st.integers(min_value=1, max_value=5))
    cities = draw(st.integers(min_value=2, max_value=4))
    hotels = draw(st.integers(min_value=1, max_value=3))
    return random_flights_instance(
        flights, cities=cities, hotels=hotels, rng=random.Random(seed)
    )


def engines():
    """One engine per storage backend."""
    return [QueryEngine(backend=backend) for backend in BACKENDS]


class TestQueryBackendDifferential:
    @settings(max_examples=100, deadline=None)
    @given(graphs(), nres())
    def test_all_pairs_agree_with_reference(self, graph, expr):
        expected = ReferenceEngine().pairs(graph, expr)
        for engine in engines():
            assert engine.pairs(graph, expr) == expected, (
                f"pairs diverged on backend={engine.backend}"
            )

    @settings(max_examples=60, deadline=None)
    @given(graphs(), nres())
    def test_single_source_agrees_with_reference(self, graph, expr):
        reference = ReferenceEngine()
        for source in sorted(graph.nodes(), key=repr):
            expected = reference.reachable(graph, expr, source)
            for engine in engines():
                assert engine.reachable(graph, expr, source) == expected

    @settings(max_examples=60, deadline=None)
    @given(graphs(), nres())
    def test_batched_multi_source_agrees_with_reference(self, graph, expr):
        sources = sorted(graph.nodes(), key=repr) + ["not-in-graph"]
        expected = ReferenceEngine().reachable_many(graph, expr, sources)
        for engine in engines():
            assert engine.reachable_many(graph, expr, sources) == expected

    @settings(max_examples=80, deadline=None)
    @given(
        graphs(max_nodes=14, max_edges=40),
        nres(),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_shared_search_agrees_on_source_subsets(self, graph, expr, seed):
        """Denser cyclic graphs give product components that span several
        sources; a subset with repeats, in random order, must still get
        each source's own reference answer."""
        rng = random.Random(seed)
        nodes = sorted(graph.nodes(), key=repr)
        sources = [rng.choice(nodes) for _ in range(rng.randint(1, 2 * len(nodes)))]
        reference = ReferenceEngine()
        expected = {u: reference.reachable(graph, expr, u) for u in sources}
        for engine in engines():
            assert engine.reachable_many(graph, expr, sources) == expected
        assert QueryEngine(backend="csr").pairs(graph, expr) == reference.pairs(
            graph, expr
        )

    @settings(max_examples=60, deadline=None)
    @given(graphs(), nres())
    def test_single_pair_agrees_with_reference(self, graph, expr):
        """``holds`` runs a dedicated single-pair code path on each
        backend — on csr a separately generated function with its own
        early-exit structure — so it gets its own differential."""
        reference = ReferenceEngine()
        expected = reference.pairs(graph, expr)
        nodes = sorted(graph.nodes(), key=repr)
        probes = [
            (u, nodes[(i * 3 + 1) % len(nodes)]) for i, u in enumerate(nodes)
        ] + [(u, u) for u in nodes[:3]] + [(nodes[0], "not-in-graph")]
        for engine in engines():
            for u, v in probes:
                assert engine.holds(graph, expr, u, v) == ((u, v) in expected), (
                    f"holds diverged on backend={engine.backend} "
                    f"probe=({u!r}, {v!r})"
                )

    @settings(max_examples=60, deadline=None)
    @given(graphs(), nres())
    def test_csr_identical_with_numpy_masked(self, graph, expr):
        """CSR buffers built without numpy answer exactly as with it."""
        expected = QueryEngine(backend="csr").pairs(graph, expr)
        with mock.patch.object(kernels, "NUMPY", None):
            assert QueryEngine(backend="csr").pairs(graph, expr) == expected


class TestChaseKernelDifferential:
    @settings(max_examples=25, deadline=None)
    @given(flight_instances())
    def test_egd_chase_identical_without_numpy(self, instance):
        with_numpy = chase_with_egds(
            [flights_st_tgd()], [hotel_egd()], instance, alphabet={"f", "h"}
        )
        with mock.patch.object(kernels, "NUMPY", None):
            without_numpy = chase_with_egds(
                [flights_st_tgd()], [hotel_egd()], instance, alphabet={"f", "h"}
            )
        assert with_numpy.failed == without_numpy.failed
        assert with_numpy.failure_witness == without_numpy.failure_witness
        assert with_numpy.expect_pattern() == without_numpy.expect_pattern()

    @settings(max_examples=25, deadline=None)
    @given(flight_instances())
    def test_sameas_solution_identical_without_numpy(self, instance):
        with_numpy = solve_with_sameas(
            [flights_st_tgd()], [hotel_sameas()], instance, alphabet={"f", "h"}
        )
        with mock.patch.object(kernels, "NUMPY", None):
            without_numpy = solve_with_sameas(
                [flights_st_tgd()], [hotel_sameas()], instance, alphabet={"f", "h"}
            )
        assert with_numpy.expect_pattern() == without_numpy.expect_pattern()
        assert with_numpy.expect_graph() == without_numpy.expect_graph()


class TestSameAsStrategyDifferential:
    """The union-find saturation is byte-identical to the journal oracle.

    ``saturate_sameas`` computes a least fixpoint of monotone rules, so
    the result is unique whatever the insertion order — but "identical
    graph" is a weaker promise than "identical bytes on the wire".  These
    properties pin the strong version over random chased graphs, random
    extra sameAs seed edges (pre-built equivalence classes), and every
    constraint-shape combination the strategy dispatcher distinguishes:
    generic bodies, the recognised symmetry/transitivity pair (absorbed
    into the union-find), and a lone law (not absorbed).
    """

    CONSTRAINT_SETS = {
        "generic": [_hotel_sameas_constraint],
        "generic+laws": [
            _hotel_sameas_constraint,
            _symmetry_constraint,
            _transitivity_constraint,
        ],
        "laws-only": [_symmetry_constraint, _transitivity_constraint],
        "generic+symmetry-only": [_hotel_sameas_constraint, _symmetry_constraint],
        "generic+transitivity-only": [
            _hotel_sameas_constraint,
            _transitivity_constraint,
        ],
    }

    @settings(max_examples=40, deadline=None)
    @given(
        flight_instances(),
        st.sampled_from(sorted(CONSTRAINT_SETS)),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=4),
    )
    def test_saturation_byte_identical(self, instance, shape, seed, extra):
        graph = _chased_graph(instance)
        nodes = sorted(graph.nodes(), key=repr)
        rng = random.Random(seed)
        widened = graph.with_alphabet(set(graph.alphabet) | {SAME_AS_LABEL})
        for _ in range(extra):  # pre-seeded equivalence classes
            widened.add_edge(rng.choice(nodes), SAME_AS_LABEL, rng.choice(nodes))
        constraints = self.CONSTRAINT_SETS[shape]
        unionfind = saturate_sameas(widened, constraints, strategy="unionfind")
        journal = saturate_sameas(widened, constraints, strategy="journal")
        assert unionfind == journal, f"graphs diverged on shape={shape}"
        assert json.dumps(graph_to_dict(unionfind), sort_keys=True) == json.dumps(
            graph_to_dict(journal), sort_keys=True
        ), f"serialized bytes diverged on shape={shape}"

    @settings(max_examples=15, deadline=None)
    @given(flight_instances())
    def test_solution_pipeline_byte_identical(self, instance):
        """End-to-end ``solve_with_sameas`` under each ``REPRO_SAMEAS``."""
        results = {}
        for strategy in ("unionfind", "journal"):
            with mock.patch.dict(os.environ, {"REPRO_SAMEAS": strategy}):
                solved = solve_with_sameas(
                    [flights_st_tgd()],
                    [_hotel_sameas_constraint],
                    instance,
                    alphabet={"f", "h"},
                )
            results[strategy] = json.dumps(
                graph_to_dict(solved.expect_graph()), sort_keys=True
            )
        assert results["unionfind"] == results["journal"]


class TestKernelName:
    def test_only_codegen_resolves(self):
        assert kernels.resolve_kernel(None) == "codegen"
        assert kernels.resolve_kernel("codegen") == "codegen"
        for retired in ("vector", "scalar", "turbo"):
            with pytest.raises(ValueError):
                kernels.resolve_kernel(retired)
