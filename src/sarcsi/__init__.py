"""Geometric-dispersion SAR modelling and colorized sub-aperture imaging.

Linear and periodic targets concentrate their backscatter at specific squint
angles, which a SAR acquisition observes as Doppler frequencies; rendering
Doppler sub-bands as red, green, and blue turns that dispersion into colour.
This package carries the closed-form model (orders, 3D projection, hue
rules), a signal-level spectrum simulator, focusing and the RGB
composition step, and inversion from colour back to orientation.
"""

from .analysis import (
    VerificationReport,
    estimate_orientation_map,
    verify_scene_against_model,
)
from .csi import compose_rgb, encode_ppm, split_subbands
from .dispersion import (
    ChartData,
    DiffractionSolution,
    GratingTarget,
    Hue,
    Orientation3D,
    chart_data,
    chart_to_csv,
    classify_hue,
    effective_squint_3d,
    high_order_squint,
    invert_orientation_from_doppler,
    orders_in_window,
    zero_order_squint,
)
from .errors import (
    AliasingError,
    ConfigError,
    DopplerRangeError,
    EvanescentOrderError,
    ParameterError,
    SarcsiError,
)
from .params import C, RadarParams, doppler_from_squint, observable, squint_from_doppler
from .scene import (
    Scene,
    SceneConfig,
    build_scenes,
    generate_scene,
    merge_scenes,
    parse_scene_config,
)
from .simulator import SpectrumGrid, azimuth_power_spectrum, synth_spectrum

__version__ = "0.1.0"

__all__ = [
    "AliasingError",
    "C",
    "ChartData",
    "ConfigError",
    "DiffractionSolution",
    "DopplerRangeError",
    "EvanescentOrderError",
    "GratingTarget",
    "Hue",
    "Orientation3D",
    "ParameterError",
    "RadarParams",
    "SarcsiError",
    "Scene",
    "SceneConfig",
    "SpectrumGrid",
    "VerificationReport",
    "azimuth_power_spectrum",
    "build_scenes",
    "chart_data",
    "chart_to_csv",
    "classify_hue",
    "compose_rgb",
    "doppler_from_squint",
    "effective_squint_3d",
    "encode_ppm",
    "estimate_orientation_map",
    "generate_scene",
    "high_order_squint",
    "invert_orientation_from_doppler",
    "merge_scenes",
    "observable",
    "orders_in_window",
    "parse_scene_config",
    "split_subbands",
    "squint_from_doppler",
    "synth_spectrum",
    "verify_scene_against_model",
    "zero_order_squint",
]
