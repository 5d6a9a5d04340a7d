"""Cross-backend conformance harness (reference / codegen)."""
