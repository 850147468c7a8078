"""Cost accounting: the §VII.D dollar models.

§VII.D's per-iteration cost curves (Figures 6-7) come from simple
published rates times measured time — with the twist that EC2 charges
whole nodes.  §VIII's comparison that also weighs deployment effort and
queue wait is the assembly broker's ranked portfolio
(:func:`repro.broker.assembly.broker_assemblies`).
"""
