"""Shared test utilities: the package's field cache and Paley pair list."""

from gpaley.verify import field_for as get_field, valid_pairs as paley_pairs

__all__ = ["get_field", "paley_pairs"]
