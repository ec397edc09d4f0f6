"""Online min-cost perfect matching with delays: a simulation laboratory.

Layers, bottom up:

* `metric`, `core`        -- finite metric spaces; requests, schedules, costs
* `embedding`             -- random embeddings into weighted binary trees
* `stiltwalker`           -- the event-driven online matching engine
* `offline`               -- exact optima and a greedy baseline
* `altpoisson`            -- alternating exponential digestion of colorings
* `penalty`               -- the fixed-penalty variant via a doubled metric
* `diagnostics`           -- potential ledgers, cost identities
* `instances`             -- generators, including the adversarial cascade
* `experiment`, `cli`     -- seeded batches, reports, command line

Names are imported from the layer modules (`from delaymatch.metric import
MetricSpace`); importing the package alone loads none of them.
"""
