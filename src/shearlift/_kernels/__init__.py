"""The quadrature kernel (numpy G7/K15, see ``fallback``)."""

from .fallback import BACKEND  # noqa: F401
