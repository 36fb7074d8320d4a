"""Exact generating-series calculus for Hilbert schemes of points,
symmetric products, and their characteristic classes."""
