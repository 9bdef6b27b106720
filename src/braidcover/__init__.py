"""Braid group actions on free groups from cyclic branched covers of a disk."""
