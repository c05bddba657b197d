"""Temporal action localization with fully convolutional snippet heads.

Subpackages:
    nncore    -- numpy forward/backward primitives, optimizer, gradient checker
    model     -- the head type, training steps, serialization
    data      -- feature/annotation IO, clip assembly, synthetic corpus generator
    localize  -- the predict pipeline: scoring, grouping, NMS, prediction files
    evaluate  -- frame-level and segment-level AP/mAP, CSV reports
    cli       -- command line entry points
"""

__version__ = "0.1.0"
