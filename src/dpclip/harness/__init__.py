"""Experiment harness: spec types, commands and the CLI."""
