"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain (e.g. real roots
    where a totally complex form is required, a non positive definite
    quadratic passed to the zero map, or a coefficient past the doubles,
    |c| >= 2^1024 - 2^970, where root finding starts)."""


class ConvergenceError(RuntimeError):
    """A numerical routine failed to converge within its iteration budget."""
