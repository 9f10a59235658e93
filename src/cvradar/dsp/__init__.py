"""Signal pre-processing, cube file I/O, sample-list files, and scene synthesis."""

from .fft import dft3d_direct, fft3d_array
from .cube import (
    CubeFormatError,
    OCCLUDED_CONFIG,
    RadarConfig,
    flatten_channels,
    read_rfc1,
    write_rfc1,
)
from .dataset import DatasetError, ManifestEntry, json_float, json_int, load_samples, write_manifest
from .scenes import (
    SyntheticScene,
    class_scene,
    parse_scene_file,
    range_bin_width,
    synth_fmcw_cube,
)

__all__ = [
    "dft3d_direct",
    "fft3d_array",
    "CubeFormatError",
    "OCCLUDED_CONFIG",
    "RadarConfig",
    "flatten_channels",
    "read_rfc1",
    "write_rfc1",
    "DatasetError",
    "ManifestEntry",
    "json_float",
    "json_int",
    "load_samples",
    "write_manifest",
    "SyntheticScene",
    "class_scene",
    "parse_scene_file",
    "range_bin_width",
    "synth_fmcw_cube",
]
