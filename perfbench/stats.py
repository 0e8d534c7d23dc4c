"""Order statistics shared by the report and the traced-run metrics."""


def percentile(values: list, q: float) -> float:
    """The sample at quantile ``q`` (nearest rank, rounding down); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
