"""Scenario engine: config, markets, agents, the run loop and its logs."""
