"""The cross-process automaton cache (repro.graph.autocache)."""

import os
import pickle
import subprocess
import sys
import time

import pytest

from repro.graph import autocache
from repro.graph.automaton import (
    NREAutomaton,
    automaton_holds,
    automaton_reachable,
    compile_nre,
    evaluate_nre_automaton,
)
from repro.graph.codegen import program_for
from repro.graph.database import GraphDatabase
from repro.graph.eval import evaluate_nre
from repro.graph.parser import parse_nre


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_AUTOMATON_CACHE", "on")
    compile_nre.cache_clear()  # force the disk layer to be consulted
    yield tmp_path
    compile_nre.cache_clear()


def entries(tmp_path):
    root = autocache.cache_dir()
    if not os.path.isdir(root):
        return []
    return [name for name in os.listdir(root) if name.endswith(".pkl")]


class TestRoundTrip:
    def test_store_then_load(self, cache_env):
        expr = parse_nre("f . f*[h] . f- . (f-)*")
        compiled = compile_nre(expr)
        assert entries(cache_env), "a non-trivial automaton should be persisted"
        loaded = autocache.load(expr)
        assert isinstance(loaded, NREAutomaton)
        assert loaded.state_count == compiled.state_count
        assert loaded.transitions == compiled.transitions

    def test_loaded_automaton_evaluates_identically(self, cache_env):
        expr = parse_nre("f . f*[h] . f- . (f-)*")
        graph = GraphDatabase(
            edges=[
                ("c1", "f", "s1"), ("s1", "f", "c2"), ("s1", "h", "h1"),
                ("c2", "f", "c3"), ("c3", "h", "h2"),
            ]
        )
        fresh = evaluate_nre_automaton(graph, expr)
        compile_nre.cache_clear()  # next compile_nre() reads from disk
        assert entries(cache_env)
        cached = evaluate_nre_automaton(graph, expr)
        assert cached == fresh == evaluate_nre(graph, expr)

    def test_tiny_expressions_not_persisted(self, cache_env):
        compile_nre(parse_nre("f"))
        assert not entries(cache_env)  # below the state-count threshold


class TestSafety:
    def test_disabled_by_env(self, cache_env, monkeypatch):
        monkeypatch.setenv("REPRO_AUTOMATON_CACHE", "off")
        assert not autocache.enabled()
        compile_nre(parse_nre("f . f*[h] . f- . (f-)*"))
        assert not entries(cache_env)

    def test_corrupt_entry_reads_as_miss(self, cache_env):
        expr = parse_nre("f . f*[h] . f- . (f-)*")
        compile_nre(expr)
        (name,) = entries(cache_env)
        path = os.path.join(autocache.cache_dir(), name)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert autocache.load(expr) is None

    def test_source_mismatch_reads_as_miss(self, cache_env):
        expr = parse_nre("f . f*[h] . f- . (f-)*")
        compile_nre(expr)
        (name,) = entries(cache_env)
        path = os.path.join(autocache.cache_dir(), name)
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload["source"] = "something else"
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        assert autocache.load(expr) is None

    def test_version_stamped_directory(self, cache_env):
        assert f"v{autocache.CACHE_FORMAT}-py" in autocache.cache_dir()

    def test_foreign_format_stamp_reads_as_miss(self, cache_env):
        """An entry stamped with another CACHE_FORMAT recompiles silently."""
        expr = parse_nre("f . f*[h] . f- . (f-)*")
        compile_nre(expr)
        (name,) = entries(cache_env)
        path = os.path.join(autocache.cache_dir(), name)
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload["format"] = autocache.CACHE_FORMAT - 1
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        assert autocache.load(expr) is None
        compile_nre.cache_clear()
        recompiled = compile_nre(expr)  # must not raise, must not read the entry
        assert recompiled.state_count > 0


def _automaton_tree(compiled):
    """``compiled`` and every nested-test automaton below it."""
    tree, stack = [], [compiled]
    while stack:
        automaton = stack.pop()
        if all(automaton is not seen for seen in tree):
            tree.append(automaton)
            stack.extend(nested for checks in automaton.tests for nested, _ in checks)
    return tree


class TestNoExecutableSource:
    """Cache entries never carry code that runs.

    The query kernel's source is generated in-process from the automaton
    on first use (:func:`repro.graph.codegen.program_for`).  A source
    string found in a pickle must stay inert: no generated kernel source
    read from disk is ever exec'd.  (The cache directory must still be
    trusted — entries are pickles, and a crafted pickle runs code on
    load; these tests pin only the narrower property.)
    """

    def test_entries_carry_no_generated_source(self, cache_env):
        expr = parse_nre("f . f*[h] . f- . (f-)*")
        automaton = compile_nre(expr)
        frozen = GraphDatabase(edges=[("c1", "f", "s1"), ("s1", "h", "h1")]).freeze()
        automaton_reachable(frozen, expr, "c1")  # memoise plan and program
        (name,) = entries(cache_env)
        path = os.path.join(autocache.cache_dir(), name)
        os.unlink(path)
        autocache.store(expr, automaton)  # rewrite it from the warm instance
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        for compiled in _automaton_tree(payload["automaton"]._compiled):
            assert not any(key.startswith("_codegen") for key in compiled.__dict__)

    def test_tampered_source_never_runs(self, cache_env, tmp_path):
        expr = parse_nre("f . f*[h] . f- . (f-)*")
        compile_nre(expr)
        (name,) = entries(cache_env)
        path = os.path.join(autocache.cache_dir(), name)
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        marker = tmp_path / "tampered-source-ran"
        # The stamp line is what older loaders checked before running it.
        tampered = (
            "CODEGEN_VERSION = 1\n"
            f"open({str(marker)!r}, 'w').close()\n"
            "raise RuntimeError('tampered cache source executed')\n"
        )
        for compiled in _automaton_tree(payload["automaton"]._compiled):
            object.__setattr__(compiled, "_codegen_source", tampered)
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)

        compile_nre.cache_clear()  # the next compile_nre() reads the entry
        loaded = compile_nre(expr).compiled()
        assert loaded.__dict__.get("_codegen_source") == tampered
        graph = GraphDatabase(
            edges=[
                ("c1", "f", "s1"), ("s1", "f", "c2"), ("s1", "h", "h1"),
                ("c2", "f", "c3"), ("c3", "h", "h2"),
            ]
        )
        frozen = graph.freeze()
        expected = evaluate_nre(graph, expr)
        assert evaluate_nre_automaton(frozen, expr) == expected
        for source, target in [("c1", "c1"), ("c1", "c3"), ("c3", "c2")]:
            assert automaton_holds(frozen, expr, source, target) == (
                (source, target) in expected
            )
        for compiled in _automaton_tree(loaded):
            program_for(compiled)  # the kernel's only exec site
        assert not marker.exists()


EXPR = "f . f*[h] . f- . (f-)*"

_WORKER_SCRIPT = """
import sys
from repro.graph.automaton import compile_nre
from repro.graph.parser import parse_nre

expr = parse_nre({expr!r})
automaton = compile_nre(expr)
sys.exit(0 if automaton.state_count > 0 else 1)
"""


class TestConcurrentWriters:
    """N real processes warming the same automaton must not corrupt the cache."""

    def _spawn(self, tmp_path, count):
        src = os.path.abspath(
            os.path.join(os.path.dirname(autocache.__file__), "..", "..")
        )
        env = dict(
            os.environ,
            PYTHONPATH=src,
            REPRO_CACHE_DIR=str(tmp_path),
            REPRO_AUTOMATON_CACHE="on",
        )
        script = _WORKER_SCRIPT.format(expr=EXPR)
        return [
            subprocess.Popen([sys.executable, "-c", script], env=env)
            for _ in range(count)
        ]

    def test_racing_processes_leave_one_clean_entry(self, cache_env):
        processes = self._spawn(cache_env, 5)
        for process in processes:
            assert process.wait(timeout=120) == 0
        root = autocache.cache_dir()
        names = os.listdir(root)
        # Exactly one pickle, no abandoned writer locks or temp files.
        assert [n for n in names if n.endswith(".pkl")] != []
        assert len([n for n in names if n.endswith(".pkl")]) == 1
        assert [n for n in names if n.endswith(".lock")] == []
        assert [n for n in names if n.endswith(".tmp")] == []
        # And the surviving entry is loadable and correct.
        from repro.graph.automaton import compile_nre
        from repro.graph.parser import parse_nre

        expr = parse_nre(EXPR)
        loaded = autocache.load(expr)
        assert loaded is not None
        compile_nre.cache_clear()
        assert loaded.transitions == compile_nre(expr).transitions

    def test_held_lock_skips_the_store(self, cache_env):
        from repro.graph.automaton import compile_nre
        from repro.graph.parser import parse_nre

        expr = parse_nre(EXPR)
        # Simulate a concurrent writer holding the per-entry lock.
        os.makedirs(autocache.cache_dir(), exist_ok=True)
        lock_path = autocache._entry_path(str(expr)) + ".lock"
        with open(lock_path, "w", encoding="utf-8") as handle:
            handle.write("424242")
        compile_nre(expr)  # would normally store
        assert autocache.load(expr) is None  # the loser skipped its write
        os.unlink(lock_path)

    def test_stale_lock_is_broken(self, cache_env):
        from repro.graph.automaton import compile_nre
        from repro.graph.parser import parse_nre

        expr = parse_nre(EXPR)
        os.makedirs(autocache.cache_dir(), exist_ok=True)
        lock_path = autocache._entry_path(str(expr)) + ".lock"
        with open(lock_path, "w", encoding="utf-8") as handle:
            handle.write("424242")
        ancient = time.time() - 2 * autocache._LOCK_STALE_SECONDS
        os.utime(lock_path, (ancient, ancient))
        compile_nre(expr)  # breaks the stale lock and writes
        assert autocache.load(expr) is not None
        assert not os.path.exists(lock_path)

    def test_existing_entry_skips_redundant_write(self, cache_env):
        from repro.graph.automaton import compile_nre
        from repro.graph.parser import parse_nre

        expr = parse_nre(EXPR)
        compile_nre(expr)
        (name,) = entries(cache_env)
        path = os.path.join(autocache.cache_dir(), name)
        before = os.stat(path).st_mtime_ns
        compile_nre.cache_clear()
        compile_nre(expr)  # loads from disk; store must not rewrite
        assert os.stat(path).st_mtime_ns == before

    def test_release_refuses_foreign_lock(self, cache_env):
        """A writer must not unlink a lock a newer writer now owns."""
        os.makedirs(autocache.cache_dir(), exist_ok=True)
        lock_path = os.path.join(autocache.cache_dir(), "entry.pkl.lock")
        with open(lock_path, "w", encoding="utf-8") as handle:
            handle.write("someone-else")
        autocache._release_entry_lock(lock_path, "my-token")
        assert os.path.exists(lock_path)  # foreign lock left untouched
        autocache._release_entry_lock(lock_path, "someone-else")
        assert not os.path.exists(lock_path)  # owner releases fine

    def test_corrupt_existing_entry_is_repaired(self, cache_env):
        """An entry that exists but does not load must be overwritten."""
        from repro.graph.automaton import compile_nre
        from repro.graph.parser import parse_nre

        expr = parse_nre(EXPR)
        compile_nre(expr)
        (name,) = entries(cache_env)
        path = os.path.join(autocache.cache_dir(), name)
        with open(path, "wb") as handle:
            handle.write(b"garbage from a crashed writer")
        assert autocache.load(expr) is None
        compile_nre.cache_clear()
        compile_nre(expr)  # recompiles — and must self-heal the entry
        assert autocache.load(expr) is not None
