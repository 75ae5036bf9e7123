"""End-to-end and per-layer benchmark for biquad; see README.md."""
