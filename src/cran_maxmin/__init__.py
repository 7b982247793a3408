"""Max-min SINR beamforming and user association under per-RRH fronthaul caps.

The Python API lives in the submodules (model, channels, socp, beamforming,
association, oracle, harness, cli); the package root exports nothing.
"""
