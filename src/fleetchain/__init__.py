"""Blockchain-anchored fleet data pipeline.

GPS floating-car data flows in, gets densified with shape-preserving
splines, drives convoy efficiency simulations, and lands, with its
reports, in a replicated content store whose references are hash-linked
under BFT agreement.  Each stage is a submodule; ``fleetchain.cli`` runs
them.
"""
