"""The query kernel name and the numpy masking point.

NRE queries on frozen CSR graphs run one search: the generated-code
kernel (:mod:`repro.graph.codegen`), which lowers each compiled automaton
once to specialized Python and needs no numpy.  Graphs on the dict
backend run the generic product BFS of :mod:`repro.graph.automaton`.

numpy is still used where it is available — the CSR backend builds its
buffers with it and the trigger matcher's self-join vectorizes over them
— and all numpy access in the library routes through :func:`get_numpy`,
so tests can simulate a numpy-less installation by monkeypatching one
attribute (``repro.kernels.NUMPY = None``) instead of manipulating
``sys.modules``.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised via both branches in the test suite
    import numpy as _numpy
except ImportError:  # pragma: no cover - the container ships numpy
    _numpy = None

NUMPY = _numpy
"""The numpy module, or ``None``.  Tests monkeypatch this to mask numpy."""


def get_numpy():
    """Return the numpy module or ``None`` (the single masking point).

    >>> get_numpy() is NUMPY
    True
    """
    return NUMPY


def resolve_kernel(kernel: str | None) -> str:
    """Name the kernel that runs: ``None`` or ``"codegen"`` gives ``"codegen"``.

    Any other name raises :class:`ValueError`.

    >>> resolve_kernel(None)
    'codegen'
    """
    if kernel not in (None, "codegen"):
        raise ValueError(f"unknown kernel {kernel!r}; the only kernel is 'codegen'")
    return "codegen"
