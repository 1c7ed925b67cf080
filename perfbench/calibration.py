"""A fixed reference loop that measures how fast the machine runs right now,
and a clock that times calls into fedmp in passes of that loop.

The shared 2-core machine this benchmark was built on changes speed by up to
1.7x within a minute as other tenants load the host. Process CPU time slows
with wall time, so the slow phases are not scheduling inside the machine, and
no choice among wall-time samples removes them: over 45 s windows of `s-gate`
units, the spread (interquartile range over median) of a unit's wall time
across seeds was 0.33, whether the fastest, the median or per-call medians
were taken. The reference loop is a few training steps of a small network in
the acceptance network's shapes: forward, softmax cross-entropy, backward and
Adam with weight decay over a dict of parameters, then a stack of feature
records and a nearest-point distance. It is the kind of work fedmp does, but
it calls nothing in fedmp, so a change to the program never changes it. The
clock runs it between the stretches of work it times and divides each
stretch's wall time by the mean pass time around it.

A long stretch drifts further from the passes around it: for 20 s `m-fedmp`
calls over 6 minutes, wall time spread 0.23, a single pass on each side 0.19,
and blocks of passes lasting a few percent of the call 0.10. So the clock also
splits a call: at the first return from a chosen inner function (``split_at``)
after ``SEGMENT_S`` of work, it closes the stretch and runs a block there. The
block's time is left out of the call's wall time. Speed changes within a
second too: single passes of the loop vary 2x back to back, so stretches are
short. The host also slows fedmp and a loop unequally, and the more the loop
looks like fedmp the less: five processes of 45 s, each timing 33-37
identical `s-gate` federation calls, gave per-process medians whose range
was 0.18 of their median in wall time, 0.04 in passes of a loop of matrix
products and ReLUs alone, and 0.01 in passes of the training-step loop used
here.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(0)
# the acceptance network's shapes: 16-d input, 64, 32, 16, 3 classes, batch 64
_SHAPES = ((16, 64), (64, 32), (32, 16), (16, 3))
_X = _RNG.standard_normal((64, 16))
_Y = _RNG.integers(0, 3, 64)
_PARAMS = {}
for _i, (_fan_in, _fan_out) in enumerate(_SHAPES):
    _PARAMS[f"W{_i}"] = 0.3 * _RNG.standard_normal((_fan_in, _fan_out))
    _PARAMS[f"b{_i}"] = np.zeros(_fan_out)
_RECORDS = [_RNG.standard_normal(16) for _ in range(64)]
_POINTS = _RNG.standard_normal((48, 16))
REPEATS = 6           # one pass takes about 8-15 ms on the machine above
STEPS = 3             # training steps per repeat
BLOCK_SHARE = 0.03    # passes after a stretch add up to this share of its time
WARMUP_S = 0.5        # passes before the first call
SEGMENT_S = 0.25      # work inside a call before it is split


def _train_steps() -> None:
    """A few steps of a small MLP with softmax cross-entropy and Adam with
    weight decay over a dict of parameters, then a stack of feature records
    and a nearest-point distance, the kinds of work fedmp's rounds do."""
    params = {k: v.copy() for k, v in _PARAMS.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(v) for k, v in params.items()}
    for t in range(1, STEPS + 1):
        h, cache = _X, []
        for i in range(len(_SHAPES)):
            z = h @ params[f"W{i}"] + params[f"b{i}"]
            cache.append((h, z))
            h = np.maximum(z, 0.0) if i < len(_SHAPES) - 1 else z
        e = np.exp(h - h.max(axis=1, keepdims=True))
        g = e / e.sum(axis=1, keepdims=True)
        g[np.arange(len(_Y)), _Y] -= 1.0
        g /= len(_Y)
        grads = {}
        for i in reversed(range(len(_SHAPES))):
            h_in, z = cache[i]
            if i < len(_SHAPES) - 1:
                g = g * (z > 0)
            grads[f"W{i}"], grads[f"b{i}"] = h_in.T @ g, g.sum(axis=0)
            g = g @ params[f"W{i}"].T
        for k in params:
            gk = grads[k]
            if not np.all(np.isfinite(gk)):
                raise ValueError(f"non-finite gradient at {k}")
            gk = gk + 6e-3 * params[k]
            m[k] = 0.9 * m[k] + 0.1 * gk
            v[k] = 0.999 * v[k] + 0.001 * gk * gk
            m_hat, v_hat = m[k] / (1 - 0.9**t), v[k] / (1 - 0.999**t)
            params[k] -= 3e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
    stacked = np.stack(_RECORDS)[: len(_POINTS)]
    np.sqrt(((_POINTS[:, None, :] - stacked[None, :, :]) ** 2).sum(-1)).min(axis=1).max()


def reference_s() -> float:
    """Wall time of one pass of the reference loop."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        _train_steps()
    return time.perf_counter() - start


class Clock:
    """Times calls in wall seconds and in reference passes. After each
    stretch of work it runs a block of passes, at least one, lasting
    ``BLOCK_SHARE`` of the stretch; a stretch's time in passes is its wall
    time over the mean of the mean pass times of the blocks before and after
    it. ``split_at`` is ``(owner, name)`` of a function the timed calls make
    often; while ``split`` is true, returns from it may end a stretch."""

    def __init__(self, split_at=None):
        self.passes: list[float] = []    # every pass, for the record
        self.split = False
        self._split_at = split_at
        self._last_block = self._block(WARMUP_S)

    def _block(self, seconds: float) -> float:
        block = [reference_s()]
        while sum(block) < seconds:
            block.append(reference_s())
        self.passes += block
        return statistics.mean(block)

    def call(self, fn, *args, **kwargs):
        """Returns ``fn``'s result, its wall time and its time in passes."""
        wall = ref = 0.0
        start = time.perf_counter()

        def close_stretch():
            nonlocal wall, ref, start
            stretch = time.perf_counter() - start
            before, self._last_block = self._last_block, self._block(BLOCK_SHARE * stretch)
            wall += stretch
            ref += stretch / ((before + self._last_block) / 2)
            start = time.perf_counter()

        owner = inner = None
        if self.split and self._split_at is not None:
            owner, name = self._split_at
            inner = getattr(owner, name)

            def splitting(*a, **kw):
                result = inner(*a, **kw)
                if time.perf_counter() - start >= SEGMENT_S:
                    close_stretch()
                return result

            setattr(owner, name, splitting)
        try:
            result = fn(*args, **kwargs)
        finally:
            if inner is not None:
                setattr(owner, name, inner)
        close_stretch()
        return result, wall, ref
