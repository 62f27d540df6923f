"""Exact Cantor-like interval construction, its measure family, and the
associated heavy-tailed random walks."""

__version__ = "0.1.0"

from .coding import AdmissibleWord, children, is_admissible, step_arrays
from .geometry import (CylinderGeometry, HoleGeometry, QPolynomial,
                       cylinder_interval, cylinder_length, hole, phi_apply)
from .measure import (CylinderMass, MeasureParams, consistency_defect,
                      cylinder_mass, transition_prob)
from .tails import zeta
from .walks import (WalkParams, WalkPath, folded_kernel_identity,
                    gamma_envelope_violations, increment_tail_prob,
                    simulate_path, transience_stats)
from .dimension import (DimSeries, PressureEstimate, dim_series,
                        furstenberg_ratio_check, lebesgue_mass_decay,
                        pressure_dimension)

__all__ = [
    "AdmissibleWord", "children", "is_admissible", "step_arrays",
    "CylinderGeometry", "HoleGeometry", "QPolynomial",
    "cylinder_interval", "cylinder_length", "hole", "phi_apply",
    "CylinderMass", "MeasureParams", "consistency_defect", "cylinder_mass",
    "transition_prob", "zeta",
    "WalkParams", "WalkPath", "folded_kernel_identity",
    "gamma_envelope_violations", "increment_tail_prob", "simulate_path",
    "transience_stats",
    "DimSeries", "PressureEstimate", "dim_series", "furstenberg_ratio_check",
    "lebesgue_mass_decay", "pressure_dimension",
]
