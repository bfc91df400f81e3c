"""Connector-space combination calculus, anchored partitions of unity, and
pointwise-limit verification on desk-scale model spaces."""
