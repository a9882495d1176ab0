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
of azimuth rows by scatterers, as real matrix products over the range columns
l <= nr/2 that also give their conjugate partners nr - l.  Either path stays
within max|dG| / max|G| <= 1e-10 of the plain direct sum, which the tests keep
as the reference, in tests/oracles.py with the peak oracles and the ideal
point response.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product

import numpy as np

from ._threads import check_memory, threaded_map, workers
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
# Direct-sum blocks are ROW_TILE azimuth rows by BLOCK_PHASES // ROW_TILE
# samples (4 MiB of cos and sin; 256 samples, the GEMM's inner dimension, from
# na = 1024 up), or one full-height block when the whole sum has at most
# BLOCK_PHASES phases.
BLOCK_PHASES = 1 << 18
ROW_TILE = 1024


@dataclass(frozen=True)
class SpectrumGrid:
    """Complex 2D spectrum on the uniform (Doppler, range-frequency) grid of an
    acquisition: data is (na, nr), azimuth-major, with power-of-two sizes of
    at least 8, else ValueError.  The acquisition fixes the axes."""

    data: np.ndarray
    params: RadarParams

    def __post_init__(self) -> None:
        if self.data.ndim != 2 or not np.iscomplexobj(self.data):
            raise ValueError("the spectrum must be a 2-D complex array")
        check_grid_size(self.data.shape[0], "na")
        check_grid_size(self.data.shape[1], "nr")

    @property
    def f_a(self) -> np.ndarray:
        """Absolute Doppler axis [Hz], spans [f_dc - B_a/2, f_dc + B_a/2)."""
        return _freq_axis(self.data.shape[0], self.params.B_a, self.params.f_dc)


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
    del on_order
    ratio /= den
    if n % 2 == 0:                                    # (-1)^m: negated where m is odd
        np.negative(ratio, out=ratio, where=np.fmod(m, 2, out=m) != 0)
    # Free the (na, nr) temporaries before the complex result is allocated.
    del m, r, den
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
    carrier: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """w (2 na, n), Re over Im of exp(-j2pi phi), phi = f_a u + carrier v, built
    in place (Im is scratch first), in the flat out if given."""
    na = f_a.size
    w = np.empty((2 * na, u.size)) if out is None else out[: 2 * na * u.size].reshape(2 * na, -1)
    phase, scratch = w[:na], w[na:]
    np.multiply.outer(f_a, u, out=phase)
    phase += np.multiply.outer(carrier, v, out=scratch)
    phase -= np.rint(phase, out=scratch)
    phase *= -2 * np.pi
    np.sin(phase, out=scratch)
    np.cos(phase, out=phase)
    return w


def _range_factor(f_r: np.ndarray, v: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """The float64 (n, 2h) view of amp exp(+j2pi v f_r[:h]), h = nr/2 + 1: with
    a block w, w @ r viewed complex (2 na, h) is T over S."""
    cycles = np.multiply.outer(v, f_r[: f_r.size // 2 + 1])
    cycles -= np.rint(cycles)
    cycles *= 2 * np.pi
    r = np.empty(cycles.shape, complex)
    np.cos(cycles, out=r.real)
    np.sin(cycles, out=r.imag)
    r *= amp[:, None]
    return r.view(float)


def _block_shape(na: int, n: int) -> tuple[int, int]:
    """(rows, samples) of the direct sum's blocks for na rows and n samples."""
    if na * n <= BLOCK_PHASES:
        return na, max(n, 1)          # one full-height block, built inline
    rows = min(na, ROW_TILE)
    return rows, BLOCK_PHASES // rows


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
    0 < l < h - 1.  Worker threads build the blocks of _block_shape, each a
    row tile by a sample chunk, chunk after chunk, and a chunk's range factor
    with its first tile; this thread adds each block's (2 rows, 2h) product
    into the tile's T and S rows in block order, the first chunk's in place.
    So the sum depends on the block shape and the BLAS alone, whose rounding
    may follow a product's row count and the BLAS thread count.  The operand
    ring and the product buffer are freed before G is allocated; the
    element-wise combine runs per row tile.
    """
    na, nr = f_a.size, f_r.size
    h = nr // 2 + 1
    rows, step = _block_shape(na, u.size)
    jobs = list(product(range(0, max(u.size, 1), step), range(0, na, rows)))
    n_workers = workers(len(jobs))
    # Threaded, block k is built in slot k % (n_workers + 1), whose last block was added
    # before threaded_map starts k: builder timing cannot change the memory touched.
    slots = [np.empty(2 * rows * step) for _ in range(n_workers + 1)] if n_workers > 1 else [None]

    def block(k: int) -> tuple[np.ndarray, np.ndarray | None]:
        lo, a = jobs[k]
        sl = slice(lo, lo + step)
        w = _direct_block(f_a[a : a + rows], carrier[a : a + rows], u[sl], v[sl],
                          slots[k % len(slots)])
        return w, (_range_factor(f_r, v[sl], amp[sl]) if a == 0 else None)

    ts = np.empty((2 * na, 2 * h))    # row tile a: T rows at 2a, then its S rows
    prod = np.empty((2 * rows, 2 * h)) if step < u.size else None
    for (lo, a), (w, chunk_r) in zip(jobs, threaded_map(block, range(len(jobs)))):
        r = chunk_r if a == 0 else r
        if lo == 0:                   # an empty scene still gets one empty block
            np.matmul(w, r, out=ts[2 * a : 2 * (a + rows)])
        else:
            ts[2 * a : 2 * (a + rows)] += np.matmul(w, r, out=prod)
    del w, r, chunk_r, prod
    slots.clear()
    g = np.empty((na, nr), complex)
    group = max(1, (1 << 14) // nr)   # rows whose T, S and G parts stay in cache
    mirror = slice(h - 2, 0, -1)      # l = h - 2 .. 1 fill nr - l = h .. nr - 1

    def combine(a0: int) -> None:     # tile a0's T rows start at 2 a0: row a's is a0 + a
        for a in range(a0, a0 + rows, group):
            b = min(a + group, a0 + rows)
            t, s = ts[a0 + a : a0 + b], ts[a0 + rows + a : a0 + rows + b]
            tr, ti, sr, si = t[:, 0::2], t[:, 1::2], s[:, 0::2], s[:, 1::2]
            gr, gi = g.real[a:b], g.imag[a:b]
            np.add(tr, si, out=gr[:, :h])
            np.subtract(sr, ti, out=gi[:, :h])
            np.subtract(tr[:, mirror], si[:, mirror], out=gr[:, h:])
            np.add(ti[:, mirror], sr[:, mirror], out=gi[:, h:])

    deque(threaded_map(combine, range(0, na, rows)), maxlen=0)
    return g


def _peak_bytes(na: int, nr: int, n: int, direct: bool) -> int:
    """Bytes synthesis holds at its peak: the closed form's three float64
    (na, nr) temporaries and a mask, or the direct sum's T over S together
    with G or with the blocks in flight and the product, whichever is larger."""
    if not direct:
        return 25 * na * nr
    rows, step = _block_shape(na, n)
    jobs = na // rows * -(-max(n, 1) // step)
    h = nr // 2 + 1
    # the ring (two blocks inline), each block with a range factor
    blocks = (workers(jobs) + 1) * 16 * step * (rows + h)
    if step < n:
        blocks += 32 * rows * h
    return 32 * na * h + max(16 * na * nr, blocks)


def synth_spectrum(
    scene: Scene, p: RadarParams, na: int = 2048, nr: int = 256
) -> SpectrumGrid:
    """Coherently sum every scatterer's phase ramp on the full spectral grid.

    Two exact evaluations of the same sum, chosen from the samples alone:

    - closed form, when the scene has at least CLOSED_FORM_MIN_N scatterers
      of one amplitude on an arithmetic progression in both x and y (a
      sampled line, array or 3-D segment): the geometric series costs
      O(na * nr) whatever the scatterer count;
    - direct sum otherwise: per block of at most BLOCK_PHASES phases (up to
      ROW_TILE azimuth rows by a chunk of samples), one real matrix product
      over the nr/2 + 1 columns l <= nr/2, which the conjugate-partner
      identity extends to all nr; worker threads build the blocks, and each
      row tile's products are added in chunk order.

    Both agree with the plain direct sum to max|dG| / max|G| <= 1e-10.  A
    grid whose spectrum, or whose synthesis at its peak, needs more than
    physical memory raises ValueError, and a scene that does not fit the
    unambiguous extents of the grid, whose result would wrap,
    AliasingError, all before anything grid-sized is allocated.
    """
    check_grid_size(na, "na")
    check_grid_size(nr, "nr")
    # the spectrum alone, before the axes are built
    check_memory(16 * na * nr, f"a {na}x{nr} spectrum")
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

    # An overflowing sum (or slow time, at a tiny V) is azimuth_power_spectrum's
    # to reject, without warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        u = scene.x / p.V                      # slow time per scatterer [s]
        v = 2 * scene.y / C                    # fast time per scatterer [s]
        steps = _uniform_steps(
            u, v, scene.amp, np.abs(f_a).max(), carrier.max() + np.abs(f_r).max()
        )
        check_memory(_peak_bytes(na, nr, u.size, steps is None),
                     f"synthesizing a {na}x{nr} spectrum")
        if steps is None:
            data = _direct_sum(f_a, f_r, carrier, u, v, scene.amp)
        else:
            data = _closed_form(f_a, f_r, carrier, u, v, scene.amp[0], *steps)
    return SpectrumGrid(data, p)


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
