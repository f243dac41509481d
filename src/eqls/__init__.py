"""Electrons on quantum liquids and solids.

Surface-state eigenproblems above cryogenic liquid/solid surfaces, the 2D
electron phase diagram with Wigner melting, and circuit-QED coupling
estimates, with a bundled registry of the six standard substances.
"""

__version__ = "0.1.0"
