"""On-disk cache of compiled NRE automata — the cold-start accelerator.

The in-process ``lru_cache`` on :func:`repro.graph.automaton.compile_nre`
makes repeated queries free *within* a process, but a fresh CLI invocation
still pays Thompson compilation plus the ε-free lowering for every NRE it
touches — the ROADMAP's "cold-start" item.  This module persists compiled
automata across processes: each cache entry is a pickle of the
:class:`~repro.graph.automaton.NREAutomaton` (with its lowered
:class:`~repro.graph.automaton.CompiledAutomaton` already materialised),
keyed by the SHA-256 of the NRE's canonical string rendering (``str`` on
NREs round-trips through the parser — a property pinned in the test
suite).

Layout and safety:

* entries live under a **version-stamped** directory —
  ``$REPRO_CACHE_DIR`` (or ``~/.cache/repro-nre``) ``/
  v{CACHE_FORMAT}-py{major}.{minor}/<sha256>.pkl`` — so a format bump or a
  Python upgrade never reads stale pickles;
* writes are atomic (temp file + ``os.replace``) and best-effort: any
  filesystem or unpickling problem silently degrades to recompilation;
* writes are also **concurrency-safe**: a per-entry ``.lock`` file
  (``O_CREAT | O_EXCL``, stale-broken after five minutes) elects a single
  writer when N pool workers warm the same automaton at once — the losers
  skip their redundant stores instead of stacking writes (see
  :func:`store`; pinned by a real-multi-process regression test);
* each payload records the source string and is cross-checked on load
  (hash-collision paranoia, costs one string compare);
* only automata with at least :data:`_MIN_STATES` states are persisted —
  caching single-label atoms would trade a microsecond of compilation for
  a filesystem round-trip and an unbounded flood of tiny files;
* **opt-out**: set ``REPRO_AUTOMATON_CACHE=off`` (or ``0``/``no``/
  ``false``) or pass ``--no-automaton-cache`` to the CLI.  The test suite
  disables it globally for hermeticity and re-enables it in the dedicated
  cache tests.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import tempfile
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # import cycle: automaton.py imports this module
    from repro.graph.automaton import NREAutomaton
    from repro.graph.nre import NRE

CACHE_FORMAT = 3
"""Bump on any change to the automaton classes' pickled shape.

Format 3: entries carry the automaton and its ε-free lowering only — no
generated query-kernel source.  The kernel's code is always generated
in-process from the automaton (:func:`repro.graph.codegen.program_for`),
so nothing read from disk is ever ``exec``\\d.  Entries of earlier
formats read as misses via the version-stamped directory and are
recompiled silently."""

_MIN_STATES = 8
"""Smallest Thompson state count worth a filesystem round-trip."""

_ENV_SWITCH = "REPRO_AUTOMATON_CACHE"
_ENV_DIR = "REPRO_CACHE_DIR"
_DISABLED = {"off", "0", "no", "false"}


def enabled() -> bool:
    """Whether the on-disk cache is active (it is, unless opted out)."""
    return os.environ.get(_ENV_SWITCH, "").strip().lower() not in _DISABLED


def cache_dir() -> str:
    """The version-stamped directory holding the pickled automata."""
    root = os.environ.get(_ENV_DIR)
    if not root:
        root = os.path.join(os.path.expanduser("~"), ".cache", "repro-nre")
    stamp = f"v{CACHE_FORMAT}-py{sys.version_info[0]}.{sys.version_info[1]}"
    return os.path.join(root, stamp)


def _entry_path(source: str) -> str:
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    return os.path.join(cache_dir(), digest + ".pkl")


def load(expr: "NRE") -> "NREAutomaton | None":
    """Return the cached automaton for ``expr``, or ``None``.

    Never raises: a missing, corrupt, foreign-format, or colliding entry
    reads as a miss.
    """
    if not enabled():
        return None
    source = str(expr)
    try:
        with open(_entry_path(source), "rb") as handle:
            payload = pickle.load(handle)
    except Exception:  # noqa: BLE001 - any unreadable entry is a miss:
        # pickle.load raises far more than PickleError on garbage bytes
        # (ValueError, UnicodeDecodeError, IndexError, ...), and a corrupt
        # cache must degrade to recompilation, never crash compile_nre.
        return None
    if not isinstance(payload, dict) or payload.get("format") != CACHE_FORMAT:
        return None
    if payload.get("source") != source:
        return None  # hash collision or tampering: recompile
    from repro.graph.automaton import NREAutomaton

    automaton = payload.get("automaton")
    if not isinstance(automaton, NREAutomaton):
        return None
    return automaton


_LOCK_STALE_SECONDS = 300.0
"""A writer lock older than this is presumed orphaned (crashed writer)."""


def _acquire_entry_lock(lock_path: str, token: str) -> bool:
    """Try to become the writer for one cache entry.

    ``O_CREAT | O_EXCL`` is the atomic test-and-set: among processes
    racing on a *live* entry, exactly one wins and the losers skip their
    (redundant) stores.  A lock file left behind by a crashed writer is
    broken once it is demonstrably stale, so an unlucky crash degrades
    the cache for at most :data:`_LOCK_STALE_SECONDS`, never forever.
    The stale-break path is best-effort — two breakers racing within
    microseconds of each other can both proceed, which costs one
    redundant (still atomic, never torn) write, not correctness.  The
    ``token`` written into the lock records ownership so release can
    refuse to unlink a lock it no longer owns.
    """
    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
    try:
        descriptor = os.open(lock_path, flags)
    except FileExistsError:
        try:
            age = time.time() - os.path.getmtime(lock_path)
        except OSError:
            return False  # the concurrent writer just finished and unlinked
        if age <= _LOCK_STALE_SECONDS:
            return False  # an active writer owns this entry
        try:
            os.unlink(lock_path)  # break the stale lock
        except OSError:
            pass
        try:
            descriptor = os.open(lock_path, flags)
        except OSError:
            return False  # lost the post-break race: someone else writes
    with os.fdopen(descriptor, "w") as handle:
        handle.write(token)
    return True


def _release_entry_lock(lock_path: str, token: str) -> None:
    """Unlink the lock only if this process still owns it.

    After a stale-lock break, the lock on disk may belong to a *newer*
    writer — unlinking unconditionally would cascade the break to a third
    process.
    """
    try:
        with open(lock_path, encoding="utf-8") as handle:
            if handle.read() != token:
                return
        os.unlink(lock_path)
    except OSError:
        pass


def store(expr: "NRE", automaton: "NREAutomaton") -> None:
    """Persist ``automaton`` (with its lowering precomputed), best-effort.

    Safe under concurrent worker pools: the first process to warm an
    automaton takes a per-entry lock file and writes atomically (temp file
    + ``os.replace``); every other process warming the same NRE at the
    same time sees either the finished entry or the held lock and skips
    its own write.  No reader can ever observe a torn pickle, and N
    workers never stack N redundant multi-megabyte writes.
    """
    if not enabled() or automaton.state_count < _MIN_STATES:
        return
    source = str(expr)
    try:
        automaton.compiled()  # persist the ε-free lowering too
        directory = cache_dir()
        os.makedirs(directory, exist_ok=True)
        target = _entry_path(source)
        if os.path.exists(target) and load(expr) is not None:
            return  # another process already warmed this entry — skip the
            # redundant write.  The load() cross-check matters: an entry
            # that *exists* but does not load (truncated, foreign format,
            # colliding source) must be overwritten, or the cache would be
            # permanently dead for this NRE.
        lock_path = target + ".lock"
        token = f"{os.getpid()}:{id(automaton):x}"
        if not _acquire_entry_lock(lock_path, token):
            return  # a concurrent writer owns the entry; its copy will land
        try:
            payload = {
                "format": CACHE_FORMAT,
                "source": source,
                "automaton": automaton,
            }
            descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(descriptor, "wb") as handle:
                    pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(temp_path, target)
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        finally:
            _release_entry_lock(lock_path, token)
    except Exception:  # noqa: BLE001 - best-effort persistence only
        pass  # a broken cache must never break compilation
