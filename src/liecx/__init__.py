"""liecx: exact classification, construction, and verification of invariant
integrable complex structures on quotients g/h of compact Lie algebras."""

__version__ = "0.1.0"
