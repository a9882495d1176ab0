"""Model-vs-simulation verification and orientation inversion.

Two closing steps.  verify_scene_against_model simulates a scene, finds the
spectral peaks, and checks them off against the analytic diffraction orders.
estimate_orientation_map goes the other way: from the three sub-band energy
maps of a CSI product back to a per-pixel orientation estimate.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .dispersion import DiffractionSolution
from .params import RadarParams, squint_from_doppler
from .scene import DEFAULT_GRID, Scene
from .simulator import azimuth_power_spectrum, synth_spectrum

# Detection threshold as a fraction of the coherent ceiling Nr * (sum amp)^2.
# Anchoring to the ceiling rather than the profile's own maximum keeps windows
# that contain no order from promoting their sidelobe tails to detections.
DETECT_FRAC = 0.5


@dataclass(frozen=True)
class PeakMatch:
    """One matched (analytic order, detected peak) pair."""

    m: int
    f_pred: float        # [Hz]
    f_peak: float        # [Hz]
    distance_bins: float


@dataclass(frozen=True)
class TargetReport:
    """Verification outcome for a single target."""

    label: str
    predicted: list[dict]
    detected: list[dict]
    matches: list[PeakMatch]
    unmatched_predictions: int
    unmatched_detections: int
    passed: bool


def peak_indices(values: np.ndarray, min_height: float) -> np.ndarray:
    """Local maxima of a 1-D profile at or above min_height.

    Endpoints count as peaks too (a maximum at the first or last sample has
    no outer neighbour to disqualify it).  A flat top is one peak, reported
    at its middle sample, rounded down.
    """
    padded = np.concatenate(([-np.inf], np.asarray(values, float), [-np.inf]))
    # Runs of equal samples; a run is a peak when both neighbouring runs are
    # strictly lower.  The two -inf pads are never peaks themselves.
    starts = np.flatnonzero(np.concatenate(([True], padded[1:] != padded[:-1])))
    ends = np.append(starts[1:], padded.size) - 1
    level = padded[starts]
    top = (level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])
    mid = (starts[1:-1][top] + ends[1:-1][top]) // 2
    return mid[padded[mid] >= min_height] - 1


def detect_peaks(
    f_a: np.ndarray, power: np.ndarray, ref_power: float
) -> list[tuple[float, float]]:
    """(frequency, power) of local maxima at or above DETECT_FRAC of ref_power."""
    idx = peak_indices(power, DETECT_FRAC * ref_power)
    return [(float(f_a[i]), float(power[i])) for i in idx]


def verify_scene_against_model(
    scene: Scene,
    p: RadarParams,
    predictions: list[DiffractionSolution],
    tol_bins: float = 2.0,
    na: int = DEFAULT_GRID["na"],
    nr: int = DEFAULT_GRID["nr"],
) -> TargetReport:
    """Simulate one target and match its spectral peaks to analytic orders.

    Peaks are local maxima of the azimuth power marginal at or above half
    the coherent ceiling nr * (sum of amplitudes)^2.  Observable predictions
    and detections are paired greedily by ascending bin distance; a pairing
    only counts within tol_bins.  The target passes when every observable
    prediction found its peak and no detection is left unclaimed.  An empty
    prediction list or a tol_bins outside (0, inf) raises ValueError before
    any synthesis.
    """
    if not predictions:
        raise ValueError("need at least one predicted order")
    if not 0 < tol_bins < math.inf:
        raise ValueError(f"match tolerance must be positive and finite, got {tol_bins} bins")
    g = synth_spectrum(scene, p, na, nr)
    f_a, power = azimuth_power_spectrum(g)
    ceiling = nr * float(scene.amp.sum()) ** 2
    detected = detect_peaks(f_a, power, ceiling)

    bin_hz = p.B_a / na
    observable = [d for d in predictions if d.observable]
    pairs = sorted(
        (
            (abs(d.f_d - f_peak) / bin_hz, i, j)
            for i, d in enumerate(observable)
            for j, (f_peak, _) in enumerate(detected)
        ),
    )
    matches: list[PeakMatch] = []
    used_pred: set[int] = set()
    used_det: set[int] = set()
    for dist, i, j in pairs:
        if dist > tol_bins:
            break
        if i in used_pred or j in used_det:
            continue
        used_pred.add(i)
        used_det.add(j)
        matches.append(
            PeakMatch(
                m=observable[i].m,
                f_pred=observable[i].f_d,
                f_peak=detected[j][0],
                distance_bins=dist,
            )
        )
    unmatched_pred = len(observable) - len(used_pred)
    unmatched_det = len(detected) - len(used_det)
    return TargetReport(
        label=scene.label,
        predicted=[
            {
                "m": d.m,
                "theta_sq_rad": d.theta_sq,
                "f_d_hz": d.f_d,
                "observable": d.observable,
                "hue": d.hue.value,
            }
            for d in predictions
        ],
        detected=[{"f_d_hz": f, "power": pw} for f, pw in detected],
        matches=sorted(matches, key=lambda mt: mt.m),
        unmatched_predictions=unmatched_pred,
        unmatched_detections=unmatched_det,
        passed=unmatched_pred == 0 and unmatched_det == 0,
    )


def merge_reports(reports: list[TargetReport], tol_bins: float) -> dict:
    """One run's report: its tolerance, overall pass and every target's report."""
    if not reports:
        raise ValueError("nothing to merge")
    return {
        "tol_bins": tol_bins,
        "passed": all(t.passed for t in reports),
        "targets": [asdict(t) for t in reports],
    }


def report_to_json(report: dict) -> str:
    """Stable-key JSON for golden-file comparison."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def estimate_orientation_map(
    r: np.ndarray,
    g: np.ndarray,
    b: np.ndarray,
    p: RadarParams,
    noise_floor: float = 0.01,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel orientation from three sub-band magnitude grids.

    Only the three band energies survive in a CSI product, so the Doppler
    estimate is the coarse band centroid: f_hat = sum(center_b E_b) / sum(E_b)
    with each band centred between its RadarParams.band_edges, at f_dc and
    f_dc -/+ B_a/3.  Pixels whose total energy is at or below noise_floor
    times the strongest pixel are masked out.
    Returns (theta_az [rad] with NaN where masked, mask).  The grids must be
    real and of one shape, else ValueError.
    """
    if not (r.shape == g.shape == b.shape) or any(map(np.iscomplexobj, (r, g, b))):
        raise ValueError("band grids must be real magnitudes of one shape")
    e = np.stack([r**2, g**2, b**2])
    total = e.sum(axis=0)
    mask = total > noise_floor * total.max() if total.size else total.astype(bool)
    edges = p.band_edges
    centers = np.array([(lo + hi) / 2 for lo, hi in zip(edges, edges[1:])])
    theta = np.full(r.shape, np.nan)
    if mask.any():
        f_hat = np.einsum("b,bij->ij", centers, e)[mask] / total[mask]
        theta[mask] = -squint_from_doppler(p, f_hat)    # the zero order's theta_az
    return theta, mask
