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
closed form as its array factor; every other cloud term by term, in blocks
of real matrix products over the range columns l <= nr/2 that also give their
conjugate partners nr - l.  Either path stays within max|dG| / max|G| <= 1e-10
of the plain direct sum, which the tests keep as the reference, in
tests/oracles.py with the peak oracles and the ideal point response.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from ._threads import threaded_map, workers
from .errors import AliasingError
from .params import C, RadarParams, squint_from_doppler
from .scene import Scene, check_grid_size

# Scatterer count from which a uniform collinear run is summed in closed form.
# The closed form costs O(na * nr) whatever the count, the direct sum
# O(na * nr * n); below this count the direct sum is the faster of the two.
CLOSED_FORM_MIN_N = 256
# Largest phase departure [cycles] of a run from an exact arithmetic
# progression that still counts as uniform.  Each term's phase error is then
# below 2pi * 1e-11, far inside the 1e-10 error budget.
UNIFORM_TOL_CYCLES = 1e-11
# Phases per direct-sum block (8 MiB of cos and sin), samples per combine tile.
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


def _direct_block(
    f_a: np.ndarray,
    f_r: np.ndarray,
    carrier: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    amp: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(w, r): w (2 na, n) is Re over Im of exp(-j2pi phi), built in place (Im
    is scratch first), in the flat out if given; r is the float64 (n, 2h) view
    of amp exp(+j2pi v f_r[:h]).  w @ r, viewed complex (2 na, h), is T over S."""
    na, h = f_a.size, f_r.size // 2 + 1
    w = np.empty((2 * na, u.size)) if out is None else out[: 2 * na * u.size].reshape(2 * na, -1)
    phase, scratch = w[:na], w[na:]
    np.multiply.outer(f_a, u, out=phase)
    phase += np.multiply.outer(carrier, v, out=scratch)
    phase -= np.rint(phase, out=scratch)
    phase *= -2 * np.pi
    np.sin(phase, out=scratch)
    np.cos(phase, out=phase)
    cycles = np.multiply.outer(v, f_r[:h])
    cycles -= np.rint(cycles)
    cycles *= 2 * np.pi
    r = np.empty((u.size, h), complex)
    np.cos(cycles, out=r.real)
    np.sin(cycles, out=r.imag)
    r *= amp[:, None]
    return w, r.view(float)


def _direct_sum(
    f_a: np.ndarray,
    f_r: np.ndarray,
    carrier: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    amp: np.ndarray,
) -> np.ndarray:
    """Term-by-term sum as real GEMMs over the h = nr/2 + 1 columns l < h.

    T and S sum a_n cos(2pi phi_kn) and -a_n sin(2pi phi_kn) times
    exp(+j2pi f_r[l] v_n), phi = f_a u + carrier v.  As f_r[nr - l] = -f_r[l],
    G[:, l] = conj(T - jS) for l < h and G[:, nr - l] = (T + jS)[:, l] for
    0 < l < h - 1.  Worker threads build the blocks of <= CHUNK_SAMPLES phases;
    this thread adds their products in block order, so the sum depends on
    CHUNK_SAMPLES alone.  The element-wise combine runs in row tiles.
    """
    na, nr = f_a.size, f_r.size
    h = nr // 2 + 1
    step = max(1, CHUNK_SAMPLES // na)
    starts = range(0, max(u.size, 1), step)
    n_workers = workers(len(starts))
    # Threaded, block k is built in slot k % (n_workers + 1), whose last block was added
    # before threaded_map starts k: builder timing cannot change the memory touched.
    slots = [np.empty(2 * na * step) for _ in range(n_workers + 1)] if n_workers > 1 else [None]

    def block(lo: int) -> tuple[np.ndarray, np.ndarray]:
        sl = slice(lo, lo + step)
        out = slots[lo // step % len(slots)]
        return _direct_block(f_a, f_r, carrier, u[sl], v[sl], amp[sl], out)

    blocks = threaded_map(block, starts)
    ts = np.matmul(*next(blocks))     # an empty scene still gets one empty block
    buf = np.empty(4 * na * h)        # each later product, then G
    for w, r in blocks:
        ts += np.matmul(w, r, out=buf.reshape(2 * na, 2 * h))
    g = buf[: 2 * na * nr].view(complex).reshape(na, nr)
    rows = max(1, CHUNK_SAMPLES // nr)
    group = max(1, rows // 32)        # rows whose T, S and G parts stay in cache
    mirror = slice(h - 2, 0, -1)      # l = h - 2 .. 1 fill nr - l = h .. nr - 1

    def combine(lo: int) -> None:
        for a in range(lo, min(lo + rows, na), group):
            b = min(a + group, na)
            t, s = ts[a:b], ts[na + a : na + b]
            tr, ti, sr, si = t[:, 0::2], t[:, 1::2], s[:, 0::2], s[:, 1::2]
            gr, gi = g.real[a:b], g.imag[a:b]
            np.add(tr, si, out=gr[:, :h])
            np.subtract(sr, ti, out=gi[:, :h])
            np.subtract(tr[:, mirror], si[:, mirror], out=gr[:, h:])
            np.add(ti[:, mirror], sr[:, mirror], out=gi[:, h:])

    deque(threaded_map(combine, range(0, na, rows)), maxlen=0)
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
    - direct sum otherwise: per chunk of na * chunk <= CHUNK_SAMPLES phases,
      one real matrix product over the nr/2 + 1 columns l <= nr/2, which the
      conjugate-partner identity extends to all nr; worker threads build the
      blocks, and the products are added in chunk order.

    Both agree with the plain direct sum to max|dG| / max|G| <= 1e-10.  A
    spectrum larger than physical memory raises ValueError, and a scene that
    does not fit the unambiguous extents of the grid, whose result would
    wrap, AliasingError, both before anything is allocated.
    """
    check_grid_size(na, "na")
    check_grid_size(nr, "nr")
    need, have = 16 * na * nr, os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"out of memory: a {na}x{nr} spectrum needs {need} bytes, "
                         f"more than the {have} bytes of physical memory")
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
    # An overflowing sum is azimuth_power_spectrum's to reject, without warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if steps is None:
            data = _direct_sum(f_a, f_r, carrier, u, v, scene.amp)
        else:
            data = _closed_form(f_a, f_r, carrier, u, v, scene.amp[0], *steps)
    return SpectrumGrid(data=data, f_a=f_a, f_r=f_r, params=p)


def azimuth_power_spectrum(g: SpectrumGrid) -> tuple[np.ndarray, np.ndarray]:
    """Range-marginal power per Doppler bin: P[k] = sum_l |G[k, l]|^2.  Raises
    ValueError unless the powers and their total are finite (|G|^2 may overflow)."""
    with np.errstate(over="ignore"):
        power = np.sum(np.abs(g.data) ** 2, axis=1)
        if not np.isfinite(power.sum()):
            raise ValueError("the spectrum's power is not finite; lower the target amplitudes")
    return g.f_a, power


def azimuth_spectrum_csv(f_a: np.ndarray, power: np.ndarray) -> str:
    """CSV form of an azimuth power spectrum, one (f_a_hz, power) row per bin."""
    lines = ["f_a_hz,power"]
    lines += [f"{f!r},{pw!r}" for f, pw in zip(f_a.tolist(), power.tolist())]
    return "\n".join(lines) + "\n"
