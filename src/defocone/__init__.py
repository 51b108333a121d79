"""Exact toolkit for Minkowski decomposability and deformation cones.

Decides (in)decomposability of rational frameworks and polytopes, computes
deformation-cone dimensions, dependency classes and rays, produces
replayable indecomposability certificates, and constructs the zonotopal
polytope families used in the quantitative reproduction table.
"""

from .framework import (
    Framework,
    dc_dimension,
    deformation_space,
    dependency_partition,
    is_indecomposable,
)
from .polytope import PolytopeV, edges, facets, framework_of

__all__ = [
    "Framework",
    "PolytopeV",
    "dc_dimension",
    "deformation_space",
    "dependency_partition",
    "edges",
    "facets",
    "framework_of",
    "is_indecomposable",
]
