"""The repo benchmark's own code (see ``perf/README.md``).

Everything here drives the system from outside: public functions,
proxies at constructor-argument seams, and what replicas publish
in-band.  Nothing under ``src/`` imports this package.
"""
