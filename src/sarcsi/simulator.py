"""Signal-level spectrum synthesis and the azimuth marginal.

The observed 2D spectrum of a scatterer cloud is modelled sample by sample:

    G[k, l] = sum_n a_n exp(-j2pi (f_a[k] u_n + (f_c cos(theta_k) + f_r[l]) v_n))

with u = x / V, v = 2 y / c, and theta_k = arcsin(lam f_a[k] / (2V)) the squint
angle of azimuth column k (params.squint_from_doppler over the whole axis).
The f_a axis carries absolute Doppler (it contains f_dc), so the per-column
range carrier f_c cos(theta_k) is exact, not a small-angle approximation.
Focusing the spectrum into an image is csi's part.

synth_spectrum evaluates that sum exactly in one of two ways, picked from the
samples themselves.  A uniformly sampled collinear run of equal amplitudes
(a line, an array, a 3-D segment) is a geometric series in n, summed in
closed form as its array factor; every other cloud is summed term by term in
8 MiB phase blocks, built on one worker thread per CPU of the process and
added in block order.  Either path stays within max|dG| / max|G| <= 1e-10 of
the plain direct sum, which the tests keep as the reference, in
tests/oracles.py with the peak oracles and the ideal point response.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import AliasingError
from .params import C, RadarParams, squint_from_doppler
from .scene import Scene

# Scatterer count from which a uniform collinear run is summed in closed form.
# The closed form costs O(na * nr) whatever the count, the direct sum
# O(na * nr * n); below this count the direct sum is the faster of the two.
CLOSED_FORM_MIN_N = 256
# Largest phase departure [cycles] of a run from an exact arithmetic
# progression that still counts as uniform.  Each term's phase error is then
# below 2pi * 1e-11, far inside the 1e-10 error budget.
UNIFORM_TOL_CYCLES = 1e-11
# Complex samples in one (na, chunk) phase block of the direct sum: 8 MiB.
CHUNK_SAMPLES = 1 << 19


@dataclass(frozen=True)
class SpectrumGrid:
    """Complex 2D spectrum on a uniform (Doppler, range-frequency) grid.

    data: (na, nr) complex samples, azimuth-major
    f_a: absolute Doppler axis [Hz], spans [f_dc - B_a/2, f_dc + B_a/2)
    f_r: baseband range-frequency axis [Hz], spans [-B_r/2, B_r/2)
    """

    data: np.ndarray
    f_a: np.ndarray
    f_r: np.ndarray
    params: RadarParams


def _threaded_map(fn: Callable, items: Sequence) -> Iterator:
    """Yield fn(item) for every item of a sequence, in input order.

    The calls run on one thread per CPU in the affinity mask (numpy releases
    the GIL in its FFTs and ufuncs), at most one per worker ahead of the
    caller, so memory stays bounded.  A call's exception is re-raised here,
    cancelling the calls not yet started.  One item or one CPU runs inline.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, len(items))
    if workers < 2:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor  # ~15 ms, so not at import

    todo = iter(items)
    pool = ThreadPoolExecutor(workers)
    try:
        window = deque(pool.submit(fn, x) for x in islice(todo, workers))
        while window:
            result = window.popleft().result()
            window.extend(pool.submit(fn, x) for x in islice(todo, 1))
            yield result
    finally:
        pool.shutdown(cancel_futures=True)


def check_grid_size(n: int, name: str) -> None:
    """Raise ValueError unless n is a power of two and at least 8."""
    if n < 8 or n & (n - 1):
        raise ValueError(f"{name} must be a power of two >= 8, got {n}")


def _freq_axis(n: int, bandwidth: float, center: float = 0.0) -> np.ndarray:
    return center - bandwidth / 2 + np.arange(n) * (bandwidth / n)


def _uniform_steps(
    u: np.ndarray, v: np.ndarray, amp: np.ndarray, fu_max: float, fv_max: float
) -> tuple[float, float] | None:
    """Per-sample steps (du, dv) when the scene qualifies for the closed form.

    It qualifies with at least CLOSED_FORM_MIN_N samples of one amplitude
    whose u and v both follow arithmetic progressions: the worst phase
    departure from the progression through the end samples, bounded with the
    largest grid frequencies fu_max and fv_max that multiply u and v, must
    stay within UNIFORM_TOL_CYCLES.
    """
    n = u.size
    if n < CLOSED_FORM_MIN_N or not np.all(amp == amp[0]):
        return None
    k = np.arange(n)
    du = (u[-1] - u[0]) / (n - 1)
    dv = (v[-1] - v[0]) / (n - 1)
    departure = fu_max * np.abs(u - (u[0] + k * du)).max() + fv_max * np.abs(
        v - (v[0] + k * dv)
    ).max()
    return (du, dv) if departure <= UNIFORM_TOL_CYCLES else None


def _closed_form(
    f_a: np.ndarray,
    f_r: np.ndarray,
    carrier: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    amp: float,
    du: float,
    dv: float,
) -> np.ndarray:
    """Geometric-series sum of n equal phasors on a uniform collinear run.

    With dphi[k, l] = f_a[k] du + (carrier[k] + f_r[l]) dv the phase step in
    cycles, m = rint(dphi) and r = dphi - m,

        G = amp exp(-j2pi phi_c) (-1)^(m (n-1)) sin(pi n r) / sin(pi r)

    where phi_c is the phase of the run's midpoint and the ratio is n at
    r = 0.  Reducing by m keeps the ratio accurate at grating orders, which
    sit at integer dphi.
    """
    n = u.size
    r = np.add.outer(f_a * du + carrier * dv, f_r * dv)
    m = np.rint(r)
    r -= m
    ratio = r * (np.pi * n)
    np.sin(ratio, out=ratio)
    den = np.sin(np.multiply(r, np.pi, out=r), out=r)
    on_order = den == 0
    den[on_order] = 1.0
    ratio[on_order] = n
    ratio /= den
    if n % 2 == 0:
        ratio *= 1 - 2 * (m.astype(np.int64) & 1)     # (-1)^m
    # Free the (na, nr) temporaries before the complex result is allocated.
    del m, r, den, on_order
    u_c = (u[0] + u[-1]) / 2
    v_c = (v[0] + v[-1]) / 2
    g = np.multiply.outer(
        amp * np.exp(-2j * np.pi * (f_a * u_c + carrier * v_c)),
        np.exp(-2j * np.pi * f_r * v_c),
    )
    g *= ratio
    return g


def _phasors(cycles: np.ndarray) -> np.ndarray:
    """exp(-j2pi cycles), cos and sin after dropping whole cycles (exact);
    cycles is overwritten."""
    cycles -= np.rint(cycles)
    cycles *= -2 * np.pi
    out = np.empty(cycles.shape, complex)
    np.cos(cycles, out=out.real)
    np.sin(cycles, out=out.imag)
    return out


def _direct_block(
    f_a: np.ndarray,
    f_r: np.ndarray,
    carrier: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    amp: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    # (A * amp, B), A[k, n] the Doppler-and-carrier phasor and B[n, l] the
    # range-frequency one; their product, in BLAS, is the chunk's term.
    phase = np.multiply.outer(f_a, u)
    phase += np.multiply.outer(carrier, v)
    az = _phasors(phase)
    az *= amp
    return az, _phasors(np.multiply.outer(v, f_r))


def _direct_sum(
    f_a: np.ndarray,
    f_r: np.ndarray,
    carrier: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    amp: np.ndarray,
) -> np.ndarray:
    """Term-by-term sum in (na, chunk) blocks of <= CHUNK_SAMPLES phase samples.

    Worker threads build the blocks; this thread multiplies them out and adds
    the products in block order, so the sum depends on CHUNK_SAMPLES alone.
    """
    step = max(1, CHUNK_SAMPLES // f_a.size)

    def block(lo: int) -> tuple[np.ndarray, np.ndarray]:
        sl = slice(lo, lo + step)
        return _direct_block(f_a, f_r, carrier, u[sl], v[sl], amp[sl])

    # An empty scene still gets one (empty) block, whose product is zero.
    terms = (az @ rg for az, rg in _threaded_map(block, range(0, max(u.size, 1), step)))
    g = next(terms)
    for term in terms:
        g += term
    return g


def synth_spectrum(
    scene: Scene, p: RadarParams, na: int = 2048, nr: int = 256
) -> SpectrumGrid:
    """Coherently sum every scatterer's phase ramp on the full spectral grid.

    Two exact evaluations of the same sum, chosen from the samples alone:

    - closed form, when the scene has at least CLOSED_FORM_MIN_N scatterers
      of one amplitude on an arithmetic progression in both x and y (a
      sampled line, array or 3-D segment): the geometric series costs
      O(na * nr) whatever the scatterer count;
    - direct sum otherwise: na * nr * n_scatterers phasors as matrix
      products, in chunks of scatterers so the phase block stays at
      CHUNK_SAMPLES complex samples (8 MiB); worker threads build the
      blocks, and the products are added in chunk order.

    Both agree with the plain direct sum to max|dG| / max|G| <= 1e-10.  The
    scene must fit the unambiguous extents of the grid or the result would
    wrap, so that raises AliasingError up front.
    """
    check_grid_size(na, "na")
    check_grid_size(nr, "nr")
    x_max = p.V * na / (2 * p.B_a)
    y_max = (C / 2) * nr / (2 * p.B_r)
    if scene.n and (np.abs(scene.x).max() >= x_max or np.abs(scene.y).max() >= y_max):
        raise AliasingError(
            f"scene extent ({np.abs(scene.x).max():.3g} m azimuth, "
            f"{np.abs(scene.y).max():.3g} m range) exceeds the unambiguous "
            f"half-extents ({x_max:.3g} m, {y_max:.3g} m) of a {na}x{nr} grid"
        )
    f_a = _freq_axis(na, p.B_a, p.f_dc)
    f_r = _freq_axis(nr, p.B_r)
    carrier = p.f_c * np.cos(squint_from_doppler(p, f_a))

    u = scene.x / p.V                      # slow time per scatterer [s]
    v = 2 * scene.y / C                    # fast time per scatterer [s]
    steps = _uniform_steps(
        u, v, scene.amp, np.abs(f_a).max(), carrier.max() + np.abs(f_r).max()
    )
    if steps is None:
        data = _direct_sum(f_a, f_r, carrier, u, v, scene.amp)
    else:
        data = _closed_form(f_a, f_r, carrier, u, v, scene.amp[0], *steps)
    return SpectrumGrid(data=data, f_a=f_a, f_r=f_r, params=p)


def azimuth_power_spectrum(g: SpectrumGrid) -> tuple[np.ndarray, np.ndarray]:
    """Range-marginal power per Doppler bin: P[k] = sum_l |G[k, l]|^2."""
    return g.f_a, np.sum(np.abs(g.data) ** 2, axis=1)


def azimuth_spectrum_csv(f_a: np.ndarray, power: np.ndarray) -> str:
    """CSV form of an azimuth power spectrum, one (f_a_hz, power) row per bin."""
    lines = ["f_a_hz,power"]
    lines += [f"{f!r},{pw!r}" for f, pw in zip(f_a.tolist(), power.tolist())]
    return "\n".join(lines) + "\n"
