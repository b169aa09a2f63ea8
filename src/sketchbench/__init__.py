"""Distributed graph-sketching simulator and verification toolkit.

Simulates one-shot sketching protocols for k-edge connectivity, builds the
hard graph family whose connectivity hinges on a single node, extracts
indistinguishable neighborhood pairs from any deterministic protocol, solves
and attacks the unique-overlap three-party problem, and replays sketching
protocols through an exact three-party simulation - all checkable against
brute-force oracles at desk scale.

Each name has one home: import it from its submodule, e.g.
``from sketchbench.model import execute``.
"""
