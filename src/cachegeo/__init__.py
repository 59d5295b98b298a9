"""Probabilistic content placement in stochastic wireless caching helper
networks: closed-form success-probability analytics, caching-probability
optimizers, and a Poisson Monte Carlo simulator that validates them.

Each name is imported from the module that defines it (`cachegeo.model`,
`.placement`, `.analytics`, `.optimizer`, `.simulator`, `.experiments`,
`.errors`), whose `__all__` is its public surface; `import cachegeo`
loads none of them.
"""
