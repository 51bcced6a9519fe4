"""Gradient flow of torus maps into the modular surface.

Maps from the flat unit 2-torus into the moduli space of unit-area flat
tori (the modular surface, i.e. the hyperbolic plane modulo SL(2, Z)) are
evolved by the harmonic-map heat flow.  The package tracks the Dirichlet
energy and its dissipation, reduces map values into the standard
fundamental domain, bins the pushforward of Lebesgue measure against the
hyperbolic area measure, and reports relative entropy and weak-*
equidistribution diagnostics.

Each name is imported from the module that defines it (flow, hyperbolic,
initial, measures, mesh, testfunctions, and cli for the command line);
importing the package itself loads none of them.
"""
