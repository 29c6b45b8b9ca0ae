"""Autonomous TCP agent: cognitive-core protocol logic with a deterministic
sequence-number ALU, a dual-agent session harness, a trace-to-SFT data
pipeline and an evaluation suite."""
