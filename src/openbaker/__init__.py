"""Quantized open baker's maps: resonance spectra, fractal Weyl-law
counting, and coherent transport for the Walsh 4-baker cavity.

Each submodule loads at the first use of one of its names, so importing
the package loads neither numpy nor scipy: the CLI can choose the BLAS
thread count before numpy starts its thread pools."""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys(("B3", "B5", "CLOSED_B4", "OPEN_B4", "OpenBakerSpec",
                     "escape_grid", "fractal_dimensions", "markov_weight",
                     "transfer_matrix"), "classical"),
    **dict.fromkeys(("build_toy_diagonal", "parity_operator", "parity_restrict",
                     "quantize_closed", "quantize_open", "walsh_quantize"),
                    "quantize"),
    **dict.fromkeys(("SectorQuery", "Spectrum", "WeylFit", "compare_spectra",
                     "count_sector", "eigen_spectrum", "invariant_nonzero_spectrum",
                     "profile_curve", "toy_closed_spectrum", "weyl_fit"), "spectral"),
    **dict.fromkeys(("build_walsh", "dft_centered", "dft_plain"), "transforms"),
    **dict.fromkeys(("TransportResult", "transmission_matrix", "transport_asymptotics",
                     "transport_quantities", "transport_result"), "transport"),
}

__all__ = sorted({*_HOMES, *_HOMES.values()})


def __getattr__(name):
    if name in _HOMES:
        return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    if name in __all__:  # a submodule: importing it binds it here
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
