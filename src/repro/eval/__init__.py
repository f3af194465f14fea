"""Evaluation harness: named platform configurations, the memoizing
experiment runner, and generators for every table and figure in the
paper's evaluation."""

from .configs import (CONFIGS, BASELINE_OF, GPP_NAMES, XLOOPS_NAMES,
                      DESIGN_SPACE_NAMES, config)
from .runner import (KernelRun, run, baseline_run, speedup,
                     energy_efficiency, clear_cache)
from .parallel import (SweepPoint, SweepSummary, sweep, table2_points,
                       table4_points)
from .report import render_table, render_series, geomean
from .table2 import Table2Row, build_table2, build_row, render_table2
from .table3 import build_table3, render_table3
from .table4 import Table4Row, build_table4, render_table4, opt_improvements
from .table5 import build_table5, render_table5
from .figures import (fig5_data, render_fig5, fig6_data, render_fig6,
                      fig7_data, render_fig7, fig8_data, render_fig8,
                      Fig8Point, fig9_data, render_fig9, FIG9_KERNELS,
                      fig10_data, render_fig10, FIG10_KERNELS)
from .export import (run_to_dict, table2_to_dict, fig8_to_dict,
                     series_to_dict, table5_to_dict, save_json,
                     load_json)
from .paper_reference import (PAPER_IO_S, PAPER_OOO4_S_LOSERS,
                              PAPER_OOO4_S_WINNERS, ShapeComparison,
                              compare_table2, measured_io_s,
                              render_comparison)

__all__ = [
    "CONFIGS", "BASELINE_OF", "GPP_NAMES", "XLOOPS_NAMES",
    "DESIGN_SPACE_NAMES", "config", "KernelRun", "run", "baseline_run",
    "speedup", "energy_efficiency", "clear_cache", "SweepPoint",
    "SweepSummary", "sweep", "table2_points", "table4_points",
    "render_table",
    "render_series", "geomean", "Table2Row", "build_table2", "build_row",
    "render_table2", "build_table3", "render_table3",
    "Table4Row", "build_table4", "render_table4",
    "opt_improvements", "build_table5", "render_table5", "fig5_data",
    "render_fig5", "fig6_data", "render_fig6", "fig7_data", "render_fig7",
    "fig8_data", "render_fig8", "Fig8Point", "fig9_data", "render_fig9",
    "FIG9_KERNELS", "fig10_data", "render_fig10", "FIG10_KERNELS",
    "run_to_dict", "table2_to_dict", "fig8_to_dict", "series_to_dict",
    "table5_to_dict", "save_json", "load_json", "PAPER_IO_S",
    "PAPER_OOO4_S_LOSERS", "PAPER_OOO4_S_WINNERS", "ShapeComparison",
    "compare_table2", "measured_io_s", "render_comparison",
]
