"""Quantized open baker's maps: resonance spectra, fractal Weyl-law
counting, and coherent transport for the Walsh 4-baker cavity."""

__version__ = "0.1.0"

from .classical import (B3, B5, CLOSED_B4, OPEN_B4, OpenBakerSpec,
                        escape_grid, fractal_dimensions, markov_weight,
                        transfer_matrix)
from .quantize import (build_toy_diagonal, parity_operator, parity_restrict,
                       quantize_closed, quantize_open, walsh_quantize)
from .spectral import (SectorQuery, Spectrum, WeylFit, compare_spectra,
                       count_sector, eigen_spectrum,
                       invariant_nonzero_spectrum, profile_curve,
                       toy_closed_spectrum, weyl_fit)
from .transforms import build_walsh, dft_centered, dft_plain
from .transport import (TransportResult, transmission_matrix,
                        transport_asymptotics, transport_quantities,
                        transport_result)

__all__ = [name for name in dir() if not name.startswith("_")]
