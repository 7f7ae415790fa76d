"""Threshold dynamics for hyperbolic and classical mean curvature flow.

The scheme alternates short wave-equation propagation of signed distance
data with zero level set extraction and redistancing.  Import the
submodules (hmbo.flow, hmbo.harness, ...) directly; see the README for the
module map and the reference experiment.
"""
