"""chansel: channel-subset selection toolkit for multichannel sequence data.

Core pieces: channel dropout masks and subset restriction (signals), a
phoneme category taxonomy (phonemes), edit distance and per-category error
rates (metrics), a small trainable reference classifier whose input layer
slices along channels and whose training applies channel dropout (model), a
synthetic corpus generator with planted channel informativeness (synth), and
cached subset-search procedures (search). The ``chansel`` CLI orchestrates
the experiment workflows. Each name is imported from its module, for
example ``from chansel.search import exhaustive_sweep``; importing the
package itself loads none of them.
"""

from ._version import __version__
