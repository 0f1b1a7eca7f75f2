"""Strategy roster shared by the benchmark files."""

from __future__ import annotations

from repro.strategies import get_strategy


def main_roster() -> list:
    """The Fig. 7 strategy roster."""
    return [get_strategy(spec) for spec in (
        "logme", "lr:basic", "lr:all+logme",
        "tg:rf,n2v,all", "tg:xgb,n2v,all", "tg:lr,n2v,all")]


def format_row(name: str, value: float, width: int = 22) -> str:
    return f"  {name:<{width}s} {value:+.3f}"
