"""Numerical pseudo-differential calculus on the p-adic integers.

Everything lives at a finite truncation level n: functions are locally
constant on cosets of p^n Z_p, the dual group is the p^n-element slice of
the Pruefer group, and every analytic formula of the calculus becomes an
exact finite sum.  Transforms, symbols, operator matrices, Schur norms,
parametrices and heat flows are all realized on p^n points without any
discretization error beyond floating-point rounding.
"""

from .core import (
    TruncationContext,
    Frequency,
    valuation,
    ConsistencyError,
    ResourceCapError,
)
from .fourier import LevelFunction, SpectralFunction, forward, inverse, l2_norm, refine
from .vladimirov import VladimirovSpec, apply_integral, eigenvalue_oracle, bessel_js
from .operator_matrix import OperatorMatrix
from .symbols import Symbol, Amplitude, SeminormReport
from .calculus import quantize, symbol_of, compose_symbols, adjoint_symbol, transpose_symbol
from .matrix_algebra import SchurReport, associated_matrix, schur_norm
from .spectral import SobolevScale, HeatTrajectory, sobolev_norm, heat_evolve

__version__ = "0.1.0"
