"""The machine's pace: how fast it runs a fixed piece of work right now.

On a few cores of a shared host the same code runs up to 1.5 times faster or
slower for a minute or more at a time, as other tenants load the host.  A
run of tens of seconds then reads fast or slow as a whole, and no statistic
taken inside the run removes that.  So the benchmark times ``probe()``, which
touches nothing of optlab, after every op, and divides each op's wall time by
the pace of its pass: the median probe time over ``REFERENCE_S``.  The scaled
time is what the op would take at the pace where the probe takes
``REFERENCE_S``, close to the probe's time on the machine in ``README.md``.
A change to optlab does not move the probe, so it moves scaled times as it
moves wall times; the unscaled wall times are kept in the record.

The probe mixes the kinds of work an op does: interpreted arithmetic, lookups
in a dict of 8,000 entries, products of small numpy arrays, a 96x96 matmul,
a pass over 2 MB of arrays and a JSON round trip.  About 2 ms.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

REFERENCE_S = 2.0e-3

_rng = np.random.default_rng(0)
_HEAP = {f"k{i}": [float(i), str(i)] for i in range(8000)}
_KEYS = list(_HEAP)[::8]
_SMALL = [_rng.random((4, 4)) for _ in range(4)]
_EYE = np.eye(16)
_SQUARE = _rng.random((96, 96))
_STREAM = _rng.random(1 << 17)
_OUT = np.empty_like(_STREAM)
_DOC = _rng.random((20, 20)).tolist()


def probe() -> float:
    """Wall seconds of the fixed work."""
    t0 = time.perf_counter()
    s = 0
    for k in range(1500):
        s += k * k
    for key in _KEYS:
        s += len(_HEAP[key][1])
    for k in range(10):
        np.kron(_SMALL[k % 4], _SMALL[(k + 1) % 4]) @ _EYE
    _SQUARE @ _SQUARE
    np.multiply(_STREAM, 1.0001, out=_OUT)
    np.add(_OUT, _STREAM, out=_OUT)
    json.loads(json.dumps(_DOC))
    return time.perf_counter() - t0


def of(samples: list[float]) -> float:
    """Pace from probe times: 1 at the reference pace, 1.5 when 1.5 times slower."""
    return statistics.median(samples) / REFERENCE_S
