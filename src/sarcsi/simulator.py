"""Signal-level spectrum synthesis and the azimuth marginal.

The observed 2D spectrum of a scatterer cloud is modelled sample by sample:

    G[k, l] = sum_n a_n exp(-j2pi (f_a[k] u_n + (f_c cos(theta_k) + f_r[l]) v_n))

with u = x / V, v = 2 y / c, and theta_k = arcsin(lam f_a[k] / (2V)) the squint
angle of azimuth column k (params.squint_from_doppler over the whole axis).
The f_a axis carries absolute Doppler (it contains f_dc), so the per-column
range carrier f_c cos(theta_k) is exact, not a small-angle approximation.
Focusing the spectrum into an image is csi's part.

synth_spectrum evaluates that sum within max|dG| / max|G| <= 1e-10 of the
plain direct sum, which the tests keep as the reference, in tests/oracles.py
with the peak oracles and the ideal point response: by _closed_form where
_uniform_steps qualifies the samples, else term by term in _direct_sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._threads import blas_gemm, check_memory, matmul_gemm, one_blas_thread, threaded_map, workers
from .errors import AliasingError
from .params import C, RadarParams, squint_from_doppler
from .scene import DEFAULT_GRID, Scene, check_grid_size

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
# Grid points whose |G|^2 azimuth_power_spectrum holds at a time (512 KiB).
POWER_POINTS = 1 << 16


@dataclass(frozen=True)
class SpectrumGrid:
    """Complex 2D spectrum on the uniform (Doppler, range-frequency) grid of an
    acquisition: data is (na, nr), azimuth-major, with power-of-two sizes of
    at least 8, else ValueError; it may be a view whose rows are further
    apart than nr values (synthesis's direct sum returns a pitch of nr + 2).
    The acquisition fixes the axes."""

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
    whose u and v both follow arithmetic progressions (a sampled line, array
    or 3-D segment): the worst phase departure from the progression through
    the end samples, bounded with the largest grid frequencies fu_max and
    fv_max that multiply u and v, must stay within UNIFORM_TOL_CYCLES.
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
    f_a: np.ndarray, carrier: np.ndarray, u: np.ndarray, v: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """w (2 na, n), Re over Im of exp(-j2pi phi), phi = f_a u + carrier v, built
    in place in the flat out (Im is scratch first)."""
    na = f_a.size
    w = out[: 2 * na * u.size].reshape(2 * na, -1)
    phase, scratch = w[:na], w[na:]
    np.multiply.outer(f_a, u, out=phase)
    phase += np.multiply.outer(carrier, v, out=scratch)
    phase -= np.rint(phase, out=scratch)
    phase *= -2 * np.pi
    np.sin(phase, out=scratch)
    np.cos(phase, out=phase)
    return w


def _range_factor(f_r: np.ndarray, v: np.ndarray, amp: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The float64 (n, 2h) view of amp exp(+j2pi v f_r[:h]), h = nr/2 + 1, built
    in place in the complex (n or more, h) out (Re is scratch first): with a
    block w, w @ r viewed complex (2 na, h) is T over S."""
    r = out[: v.size]
    cycles = r.imag
    np.multiply.outer(v, f_r[: f_r.size // 2 + 1], out=cycles)
    cycles -= np.rint(cycles, out=r.real)
    cycles *= 2 * np.pi
    np.cos(cycles, out=r.real)
    np.sin(cycles, out=cycles)
    r *= amp[:, None]
    return r.view(float)


def _block_shape(na: int, n: int) -> tuple[int, int]:
    """(rows, samples) of the direct sum's blocks for na rows and n samples: a
    block never has more samples than the scene, nor a sum of several blocks
    fewer than two row tiles, which two threads share whatever the CPUs."""
    if na * n <= BLOCK_PHASES:
        return na, max(n, 1)          # one full-height block, built inline
    rows = min(na // 2, ROW_TILE)
    return rows, min(BLOCK_PHASES // rows, n)


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
    0 < l < h - 1.  A job per row tile of _block_shape, on worker threads and
    one BLAS thread, builds each sample chunk's block and range factor in
    turn, in its thread's scratch from threaded_map, and has blas_gemm write
    their T-row and S-row (rows, 2h) products into its tile's partial sums,
    which start uninitialised: the first chunk's (an empty scene's too) with
    beta = 0, each later chunk's added with beta = 1.  Row 2k of the sums
    holds T_k and row 2k + 1 S_k.  So the sum depends on the block shape and
    the BLAS alone, whose rounding may follow a product's row count and,
    where one_blas_thread cannot pin it, the BLAS thread count.

    A pair is nr + 2 complex values, so G row k fits in the memory of its own
    pair: the job's element-wise combine then copies a group of its pairs to
    its thread's staging scratch and writes their G rows over them.  Returns
    G as an (na, nr) view whose rows have a pitch of nr + 2.
    """
    na, nr = f_a.size, f_r.size
    h = nr // 2 + 1
    rows, step = _block_shape(na, u.size)
    chunks, tiles = range(0, max(u.size, 1), step), range(0, na, rows)
    group = _combine_group(nr, rows)  # rows whose T, S and G parts stay in cache
    gemm = blas_gemm()
    ts = np.empty((2 * na, 2 * h))    # row 2k: T_k, row 2k + 1: S_k
    pairs = ts.view(complex).reshape(na, 2 * h)    # row k: T_k, then S_k
    g = pairs[:, :nr]
    mirror = slice(h - 2, 0, -1)      # l = h - 2 .. 1 fill nr - l = h .. nr - 1

    def tile(a0: int, block: np.ndarray, factor: np.ndarray, staged: np.ndarray) -> None:
        sums = ts[2 * a0 : 2 * (a0 + rows)].reshape(rows, 2, -1).swapaxes(0, 1)
        for lo in chunks:
            sl = slice(lo, lo + step)
            w = _direct_block(f_a[a0 : a0 + rows], carrier[a0 : a0 + rows], u[sl], v[sl],
                              block).reshape(2, rows, -1)
            r = _range_factor(f_r, v[sl], amp[sl], factor)
            for half, total in zip(w, sums):    # T rows, then S rows
                gemm(half, r, total, 1.0 if lo else 0.0)
        for a in range(a0, a0 + rows, group):
            b = min(a + group, a0 + rows)
            pair = staged[: b - a]
            pair[...] = pairs[a:b]    # G rows a..b overwrite these pairs
            t, s = pair[:, :h], pair[:, h:]
            tr, ti, sr, si = t.real, t.imag, s.real, s.imag
            gr, gi = g.real[a:b], g.imag[a:b]
            np.add(tr, si, out=gr[:, :h])
            np.subtract(sr, ti, out=gi[:, :h])
            np.subtract(tr[:, mirror], si[:, mirror], out=gr[:, h:])
            np.add(ti[:, mirror], sr[:, mirror], out=gi[:, h:])

    with one_blas_thread():    # each worker runs its own tiles' GEMMs; none enters the pin
        threaded_map(tile, tiles, ((2 * rows * step,), float), ((step, h), complex),
                     ((group, 2 * h), complex))
    return g


def _combine_group(nr: int, rows: int) -> int:
    """Azimuth rows the combine stages at a time."""
    return min(rows, max(1, (1 << 14) // nr))


def spectrum_bytes(na: int, nr: int) -> int:
    """Bytes of a synthesized (na, nr) spectrum: the direct sum's na T/S pairs
    of nr + 2 complex values, which its G rows overwrite (32 na more than a
    closed-form spectrum holds)."""
    return 16 * na * (nr + 2)


def synthesis_bytes(na: int, nr: int, n: int, direct: bool) -> int:
    """Bytes synthesis holds at its peak: the sample times and axes; the
    closed form's three float64 (na, nr) temporaries, a mask and complex
    row and column factors, or the direct sum's spectrum_bytes and, per
    worker, a block, a range factor, a combine staging buffer and, where
    matmul_gemm runs a sum of several chunks, the product it allocates;
    and numpy's ufunc buffers, once for the closed form and per worker for
    the direct sum.  A ufunc buffers up to three float64 operands of
    np.getbufsize() elements, 24 bytes an element; 32 leave room for the
    iterator's and the workers' own objects."""
    times, ufunc = 8 * (2 * n + 2 * na + nr), 32 * np.getbufsize()
    if not direct:
        return 25 * na * nr + 16 * (na + nr) + times + ufunc
    rows, step = _block_shape(na, n)
    h = nr // 2 + 1
    slot = 16 * rows * step + 16 * step * h + 32 * _combine_group(nr, rows) * h + ufunc
    if step < n and blas_gemm() is matmul_gemm:
        slot += 16 * rows * h
    return spectrum_bytes(na, nr) + times + workers(na // rows) * slot


def synth_spectrum(
    scene: Scene, p: RadarParams, na: int = DEFAULT_GRID["na"], nr: int = DEFAULT_GRID["nr"]
) -> SpectrumGrid:
    """Coherently sum every scatterer's phase ramp on the full spectral grid,

    G[k, l] = sum_n a_n exp(-j2pi (f_a[k] u_n + (f_c cos(theta_k) + f_r[l]) v_n)),

    within max|dG| / max|G| <= 1e-10 of the plain direct sum: by _closed_form
    where _uniform_steps qualifies the samples, else by _direct_sum.  The
    scene and the grid are checked by check_synthesis first."""
    u, v, steps = check_synthesis(scene, p, na, nr)
    # An overflowing sum is azimuth_power_spectrum's to reject; it does not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        f_a = _freq_axis(na, p.B_a, p.f_dc)
        f_r = _freq_axis(nr, p.B_r)
        carrier = p.f_c * np.cos(squint_from_doppler(p, f_a))
        if steps is None:
            data = _direct_sum(f_a, f_r, carrier, u, v, scene.amp)
        else:
            data = _closed_form(f_a, f_r, carrier, u, v, scene.amp[0], *steps)
    return SpectrumGrid(data, p)


def check_synthesis(scene: Scene, p: RadarParams, na: int, nr: int
                    ) -> tuple[np.ndarray, np.ndarray, tuple[float, float] | None]:
    """synth_spectrum's checks, made before any array of na values exists:
    grid sizes, extents (AliasingError where the scene would wrap), finite
    times u = x / V and v = 2 y / c, and synthesis_bytes within physical
    memory (ValueError).  The window's edges |f_dc| + B_a/2 and f_c + B_r/2
    pick the path: the axes' maxima to the bit at f_dc = 0, above them
    otherwise, never a looser test.  Returns u, v and the closed form's
    steps, or None for the direct sum."""
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
    with np.errstate(over="ignore", invalid="ignore"):    # slow time overflows at a tiny V
        u = scene.x / p.V                      # slow time per scatterer [s]
        v = 2 * scene.y / C                    # fast time per scatterer [s]
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise ValueError(f"a scatterer's slow time x / V or fast time 2 y / c is not "
                             f"finite at the platform speed V = {p.V!r} m/s")
        steps = _uniform_steps(u, v, scene.amp, abs(p.f_dc) + p.B_a / 2, p.f_c + p.B_r / 2)
    check_memory(synthesis_bytes(na, nr, u.size, steps is None),
                 f"synthesizing a {na}x{nr} spectrum")
    return u, v, steps


def azimuth_power_spectrum(g: SpectrumGrid) -> tuple[np.ndarray, np.ndarray]:
    """Range-marginal power per Doppler bin: P[k] = sum_l |G[k, l]|^2, a few
    rows at a time in one small scratch.  Raises ValueError unless the powers
    and their total are finite (|G|^2 may overflow)."""
    na, nr = g.data.shape
    rows = max(1, POWER_POINTS // nr)
    power = np.empty(na)
    scratch = np.empty((min(rows, na), nr))
    with np.errstate(over="ignore"):
        for lo in range(0, na, rows):
            sq = np.abs(g.data[lo : lo + rows], out=scratch[: min(rows, na - lo)])
            np.sum(np.square(sq, out=sq), axis=1, out=power[lo : lo + rows])
        if not np.isfinite(power.sum()):
            raise ValueError("the spectrum's power is not finite; lower the target amplitudes")
    return g.f_a, power


def azimuth_spectrum_csv(f_a: np.ndarray, power: np.ndarray) -> str:
    """CSV form of an azimuth power spectrum, one (f_a_hz, power) row per bin."""
    lines = ["f_a_hz,power"]
    lines += [f"{f!r},{pw!r}" for f, pw in zip(f_a.tolist(), power.tolist())]
    return "\n".join(lines) + "\n"
