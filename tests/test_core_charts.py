"""Tests for the ASCII figure rendering."""

import numpy as np
import pytest

from repro.core.charts import bar_chart, spatial_chart


class TestBarChart:
    def test_scales_to_width(self):
        chart = bar_chart(["a", "b"], [1.0, 2.0], width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10

    def test_title(self):
        chart = bar_chart(["a"], [1.0], title="hello")
        assert chart.splitlines()[0] == "hello"

    def test_zero_values(self):
        chart = bar_chart(["a", "b"], [0.0, 0.0])
        assert "#" not in chart

    def test_validation(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            bar_chart([], [])
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0], width=0)


class TestSpatialChart:
    def test_renders_all_destinations(self):
        fractions = np.array([0.0, 0.5, 0.25, 0.25])
        chart = spatial_chart(fractions, src=0)
        assert "p0" in chart and "p3" in chart
        assert "spatial distribution of p0" in chart
