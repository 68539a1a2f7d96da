"""Plot theme: the fixed palette and layout constants used by every figure.

Charts never measure text (labels are positioned with anchor attributes), so
rendered bytes do not depend on any font being installed.
"""

# Class palette, in declared class order; repeats if more series are needed.
PALETTE = (
    "#4c78a8",  # blue
    "#f58518",  # orange
    "#54a24b",  # green
    "#e45756",  # red
    "#72b7b2",  # teal
    "#b279a2",  # purple
    "#9d755d",  # brown
)

# Sequential colormap endpoints for heatmap cells over [0, 1].
HEAT_LOW = (247, 251, 255)
HEAT_HIGH = (8, 48, 107)

BACKGROUND = "#ffffff"
AXIS_COLOR = "#333333"
BOX_EDGE = "#333333"
BAR_FILL = "#4c78a8"

FONT_FAMILY = "sans-serif"
FONT_SIZE = 11
TITLE_SIZE = 14

MARGIN_LEFT = 120
MARGIN_RIGHT = 20
MARGIN_TOP = 48
MARGIN_BOTTOM = 56
PANEL_GAP = 34

DEFAULT_WIDTH = 640
DEFAULT_HEIGHT = 420
