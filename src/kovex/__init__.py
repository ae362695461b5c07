"""Exact Kovalevskaya-exponent analysis for quasi-homogeneous polynomial vector fields."""

__version__ = "0.1.0"
__all__ = ["Analysis", "AnalysisError", "analyze"]


def __getattr__(name):
    # the pipeline loads on first use; a bare `import kovex` stays light
    if name in __all__:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module 'kovex' has no attribute {name!r}")
