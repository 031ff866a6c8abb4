"""40-digit ``decimal`` oracles with their own pi and sine.

They share no code with fracstep: sine and cosine are summed from their
Taylor series, and pi is a 50-digit literal.
"""

import decimal

PI_50 = "3.14159265358979323846264338327950288419716939937510"


def sin_cos(z):
    """Taylor series of sin and cos in the current decimal context."""
    sin, cos = decimal.Decimal(0), decimal.Decimal(0)
    term, k = decimal.Decimal(1), 0  # z^k / k!
    while abs(term) > decimal.Decimal(10) ** -60:
        if k % 2:
            sin += term if k % 4 == 1 else -term
        else:
            cos += term if k % 4 == 0 else -term
        k += 1
        term = term * z / k
    return sin, cos


def sine_moments(n_cells):
    """Hat moments ``int sin(pi x) phi_i = (2 - 2 cos(pi h)) / (h pi^2)
    sin(pi x_i)`` at the interior nodes, as 40-digit decimals."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        pi = D(PI_50)
        h = D(1) / n_cells
        _, cos_h = sin_cos(pi * h)
        factor = (2 - 2 * cos_h) / (h * pi * pi)
        return [factor * sin_cos(pi * i * h)[0] for i in range(1, n_cells)]


def manufactured_error_norms(values, num_steps):
    """(E1, E2) of ``values`` against ``t^2 sin(pi x)`` on uniform grids with
    T = 1, in 40-digit decimal.

    Expands ``||u - U||^2 = ||u||^2 - 2 (u, U) + ||U||^2`` per interval with
    ``||sin||^2 = 1/2``, ``|sin|_1^2 = pi^2/2``, :func:`sine_moments` and the
    P1 forms;
    the H1 cross term is ``pi^2`` times the L2 one.  At 40 digits the
    cancellation costs nothing a double can see.
    """
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        pi = D(PI_50)
        n_cells = values.shape[1] + 1
        h = D(1) / n_cells
        tau = D(1) / num_steps
        moments = sine_moments(n_cells)
        e1_sq = e2_sq = D(0)
        for k, row in enumerate(values):
            row = [D(float(v)) for v in row]
            a, b = k * tau, (k + 1) * tau
            t5 = (b ** 5 - a ** 5) / 5
            t3 = (b ** 3 - a ** 3) / 3
            cross = sum(u * m for u, m in zip(row, moments))
            squares = sum(u * u for u in row)
            products = sum(u * v for u, v in zip(row, row[1:]))
            mass = h / 6 * (4 * squares + 2 * products)
            stiffness = (2 * squares - 2 * products) / h
            e2_sq += t5 / 2 - 2 * t3 * cross + tau * mass
            e1_sq += pi * pi * (t5 / 2 - 2 * t3 * cross) + tau * stiffness
        return float(e1_sq.sqrt()), float(e2_sq.sqrt())
