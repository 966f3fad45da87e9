"""A numpy-only DOP853 integrator: the embedded Runge-Kutta pair of order
8(5,3) of Dormand and Prince with its dense output of order 7 (Hairer,
Norsett & Wanner, Solving Ordinary Differential Equations I, Sec. II.4-II.6
and II.10), as one run object that steps, records its accepted steps with
lazily built interpolants and stops on events; and Brent's root finder.

The stepper does the arithmetic of scipy's DOP853 (rk_step, _step_impl,
_estimate_error_norm and select_initial_step) in the same operation order,
and the root finder is a transliteration of scipy's brentq.c: on the same
right-hand side both take the same steps and return the same floats, to the
last bit, without importing scipy. Runs go forward in time, with no maximum
step size. The transposed views of the stages that each stage and the error
estimate read are built once per run; products are ndarray.dot and real
2-norms sqrt(x.x) (np.linalg.norm's formula), without numpy's dispatch.

A ``core`` block names the components that the right-hand side reads; the
stepper drops the components outside it, quadratures along the core, where
they leave float range: an attempt whose error norm is not finite is judged
on the core alone, at no extra attempt, and an accepted state so judged, or
not finite outside the core, reads NaN in that whole block. The NaN, which
carries itself forward, is the only record of a drop. The first-step rule
rates the whole state, which is scipy's rule, and with a core also the core
alone, and takes the larger step, so that a large quadrature does not
shrink the first step below what the core needs; a run that starts not
finite outside the core rates the core alone.

``step`` keeps scipy's step-size control, which the tests pin step for
step. ``advance``, the stepping loop, adds Gustafsson's predictive limit
(ACM TOMS 1991; Hairer & Wanner II, Sec. IV.8) once a run has rejected an
attempt: on a solution steepening towards blow-up, scipy's controller alone
rejects every other attempt. It stops at terminal events, found on the
interpolant of the step that crossed one. A step's interpolant is built on
the first evaluation inside it, so a run read only at step ends builds none.

The tableau is copied from scipy/integrate/_ivp/dop853_coefficients.py
(SciPy 1.17.1), which carries this notice:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

# --- The DOP853 tableau, as in scipy/integrate/_ivp/dop853_coefficients.py ---

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138


B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# First 3 coefficients are computed separately.
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

# --- End of the tableau ---

EPS = np.finfo(float).eps

# scipy's smallest admissible brentq rtol, also solve_ivp's tolerance for
# event roots.
ROOT_TOL = 4.0 * EPS
MAX_ITER = 100  # brentq's iteration limit, scipy's default

SAFETY = 0.9  # multiplies step sizes predicted from the error estimate
MIN_FACTOR = 0.2  # the largest decrease of a step size
MAX_FACTOR = 10  # the largest increase of a step size
ERROR_EXPONENT = -1 / 8  # the error estimator has order 7

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# Per inner stage s: the row A[s, :s] and the node C[s].
_STAGE_ROWS = [(A[s, :s], C[s]) for s in range(1, N_STAGES)]
_EXTRA_ROWS = [(A[s, :s], C[s]) for s in range(N_STAGES + 1, N_STAGES_EXTENDED)]


def norm(x):
    """The 2-norm of a real vector, bit for bit np.linalg.norm(x)."""
    return math.sqrt(x.dot(x))


def rms_norm(x):
    return norm(x) / x.size ** 0.5


def select_initial_step(fun, t0, y0, t_bound, f0, rtol, atol, blocks):
    """scipy's first-step rule (Hairer, Norsett & Wanner, Sec. II.4) for a
    forward run, applied to each block of components in ``blocks`` (index
    slices of y) and the largest of the steps it gives; calls fun once, at
    the first nonzero initial guess, which every block's estimate of the
    second derivative shares. ``(slice(None),)`` is scipy's rule itself.
    Where every guess is 0 (each block's derivative overflows its scale),
    it returns 0 without calling fun."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    norms = [(rms_norm(y0[b] / scale[b]), rms_norm(f0[b] / scale[b])) for b in blocks]
    h0 = [min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval_length) for d0, d1 in norms]
    probe = next((h for h in h0 if h), 0.0)
    if not probe:  # every block's derivative overflows its scale
        return 0.0
    f1 = fun(t0 + probe, y0 + probe * f0)
    steps = []
    for block, h, (_, d1) in zip(blocks, h0, norms):
        d2 = rms_norm((f1 - f0)[block] / scale[block]) / probe
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        steps.append(min(100 * h, h1, interval_length))
    return max(steps)


class DOP853:
    """One forward DOP853 run of y' = fun(t, y) from (t0, y0) towards
    t_bound, and the record of its accepted steps.

    ``step()`` makes one accepted step, shrinking and retrying after each
    rejected attempt, and returns False when the step size falls below ten
    float spacings at t. After a step, ``t_old``/``t`` and ``y`` delimit it,
    ``K_extended`` holds its stages with room for the three extra stages of
    its interpolant, and ``finished`` tells whether it reached t_bound.
    ``error_norm`` is the error estimate of the accepted attempt and
    ``rejected`` counts rejected attempts. ``nfev`` counts the calls of fun:
    1 for the initial derivative, which is ``f0`` where the caller has it,
    1 for the probe of the first-step rule (run without first_step; it
    makes none where every guess is 0), 12 per attempt and 3 per
    interpolant built. The run sets no budget; a caller that sets one reads
    nfev in advance's until, once per accepted step. As in scipy, an rtol
    below 100 eps is raised to 100 eps. With a ``core`` slice, the
    components outside it are dropped by the rule above; the caller's
    np.errstate governs numpy's reports on them.

    ``grid`` and ``ys`` are the accepted step ends and their states (the
    last point of a run stopped by an event is the interpolated root), and
    calling the run at t evaluates it like solve_ivp's dense output on the
    same steps, but returns the stored state at a grid point. ``event`` is
    the index of the event that stopped ``advance``, and ``failed`` tells
    whether its step size underflowed."""

    def __init__(self, fun, t0, y0, t_bound, rtol, atol, first_step=None, core=None, f0=None):
        self.fun = fun
        self.t_old = None
        self.t = t0
        self.y, self._abs_y = y0, np.abs(y0)
        self.t_bound = t_bound
        self.rtol = max(rtol, 100 * EPS)
        self.atol = atol
        self.f = fun(t0, y0) if f0 is None else f0
        self.nfev = 1
        index = range(y0.size)
        self._outside = [] if core is None else [i for i in index if i not in index[core]]
        if first_step is None:
            finite = all(math.isfinite(v[i]) for v in (y0, self.f) for i in self._outside)
            blocks = (slice(None),) if core is None else (slice(None), core) if finite else (core,)
            self.h_abs = select_initial_step(self._probe, t0, y0, t_bound, self.f, self.rtol, atol, blocks)
        elif not 0 < first_step <= abs(t_bound - t0):
            raise ValueError("first_step must be positive and inside the interval")
        else:
            self.h_abs = first_step
        self.K_extended = np.empty((N_STAGES_EXTENDED, y0.size))
        self.K = K = self.K_extended[:N_STAGES + 1]
        # Transposed views of the stages, built once: stage s reads K[:s].
        self._stage_views = [(s, K[:s].T, a, c) for s, (a, c) in enumerate(_STAGE_ROWS, start=1)]
        self._KT_B = K[:-1].T
        self._KT = K.T
        self.rejected = 0
        self.finished = False
        self.failed = False
        self.event = None
        self._ts, self._ys = [t0], [y0]  # the grid and its states
        self._steps = []  # (t_old, t_new, y_new, stages) per accepted step
        self._coefs = {}

    @property
    def grid(self):
        return np.array(self._ts)

    @property
    def ys(self):
        return np.array(self._ys)

    @property
    def n_steps(self):
        return len(self._steps)

    def step(self):
        t, y = self.t, self.y
        rtol, atol = self.rtol, self.atol
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = min_step if self.h_abs < min_step else self.h_abs
        step_rejected = False
        while True:
            if h_abs < min_step:
                return False
            t_new = t + h_abs
            if t_new - self.t_bound > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new = self._rk_step(t, y, h)
            abs_y_new = np.abs(y_new)
            scale = atol + np.maximum(self._abs_y, abs_y_new) * rtol
            err5 = self._KT.dot(E5) / scale
            err3 = self._KT.dot(E3) / scale
            error_norm = _error_norm(h, err5, err3)
            if not math.isfinite(error_norm) and self._outside:
                # Judged on the core alone, and dropped if accepted.
                err5[self._outside] = err3[self._outside] = 0.0
                y_new[self._outside] = abs_y_new[self._outside] = math.nan
                error_norm = _error_norm(h, err5, err3)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            # max(MIN_FACTOR, nan) is MIN_FACTOR: a NaN error estimate shrinks
            # the step like a large one.
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            step_rejected = True
            self.rejected += 1
        for i in self._outside:
            if not math.isfinite(y_new[i]):
                y_new[self._outside] = abs_y_new[self._outside] = math.nan
                break
        self.t_old, self.t, self.y, self._abs_y = t, t_new, y_new, abs_y_new
        self.h_abs, self.f, self.error_norm = h_abs, f_new, error_norm
        self.finished = t_new - self.t_bound >= 0
        self._steps.append((t, t_new, y_new, self.K_extended.copy()))
        self._ts.append(t_new)
        self._ys.append(y_new)
        return True

    def advance(self, events=(), until=None):
        """Step until the run finishes, its step size underflows, a terminal
        event fires, or until(self) holds at an accepted step end, and return
        the run. Events are tested on accepted step ends with solve_ivp's
        rule for direction +1 (g <= 0 at the step start and g >= 0 at its
        end); the run stops at the earliest root of the events that fired,
        found by brentq on that step's interpolant.

        Once the run has rejected an attempt, the step after an accepted
        step n that follows an accepted step n-1 is at most Gustafsson's
        SAFETY h_n (h_n / h_{n-1}) (err_{n-1} / err_n^2)^(1/8), and that
        limit is at least MIN_FACTOR h_n; err is the error norm of a step."""
        g = [event(self.t, self.y) for event in events]
        h_last = err_last = 0.0  # the previous accepted step and its error norm
        while True:
            if not self.step():
                self.failed = True
                return self
            h, err = self.t - self.t_old, self.error_norm
            if self.rejected and err_last and err:
                h_gus = SAFETY * h * (h / h_last) * (err_last / err**2) ** -ERROR_EXPONENT
                self.h_abs = min(self.h_abs, max(h_gus, MIN_FACTOR * h))
            h_last, err_last = h, err
            g_new = [event(self.t, self.y) for event in events]
            active = [k for k, (lo, hi) in enumerate(zip(g, g_new)) if lo <= 0.0 <= hi]
            if active:
                last = self.n_steps - 1
                roots = [
                    brentq(lambda t, ev=events[k]: ev(t, self.interpolate(last, t)), self.t_old, self.t)
                    for k in active
                ]
                first = int(np.argmin(roots))
                self.event = active[first]
                self._ts[-1] = roots[first]
                self._ys[-1] = self.interpolate(last, roots[first])
                return self
            if self.finished or (until is not None and until(self)):
                return self
            g = g_new

    def interpolate(self, k, t):
        """The interpolant of step k at t, evaluated like scipy's DOP853
        dense output."""
        t_old, t_new = self._steps[k][:2]
        coefs = self._coefs.get(k)
        if coefs is None:
            coefs = self._coefs[k] = self._coefficients(k)
        s = (t - t_old) / (t_new - t_old)
        y = np.zeros(self._ys[k].size)
        for i, f in enumerate(reversed(coefs)):
            y += f
            y *= s if i % 2 == 0 else 1 - s
        return y + self._ys[k]

    def __call__(self, t):
        j = min(bisect.bisect_left(self._ts, t), len(self._ts) - 1)
        if self._ts[j] == t:
            return self._ys[j]
        return self.interpolate(min(max(j - 1, 0), self.n_steps - 1), t)

    def _probe(self, t, y):  # the first-step rule's call of fun
        self.nfev += 1
        return self.fun(t, y)

    def _rk_step(self, t, y, h):
        fun, K = self.fun, self.K
        self.nfev += N_STAGES
        K[0] = self.f
        # numpy converts a Python float on every product; a 0-d array is
        # converted once, with the same products.
        h_arr = np.array(h)
        for s, K_sT, a, c in self._stage_views:
            K[s] = fun(t + c * h, y + K_sT.dot(a) * h_arr)
        y_new = y + self._KT_B.dot(B) * h_arr
        f_new = fun(t + h, y_new)
        K[-1] = f_new
        return y_new, f_new

    def _coefficients(self, k):
        t_old, t_new, y_new, stages = self._steps[k]
        y_old = self._ys[k]
        h = t_new - t_old
        delta = y_new - y_old
        self.nfev += len(_EXTRA_ROWS)
        with np.errstate(over="ignore", invalid="ignore"):
            for s, (a, c) in enumerate(_EXTRA_ROWS, start=N_STAGES + 1):
                stages[s] = self.fun(t_old + c * h, y_old + stages[:s].T.dot(a) * h)
            coefs = _dense_coefficients(h, delta, stages)
            # Near an overflow of psi_0 its stages approach the float limit,
            # and the sums in D @ stages overflow although the coefficients
            # are in range. Such components are recomputed from stages scaled
            # by a power of 2 above their largest; the scaling is exact. A
            # component that the stepper dropped (a NaN increment) reads NaN.
            if not np.isfinite(coefs).all():
                bad = ~np.isfinite(coefs).all(axis=0)
                scale = np.ldexp(1.0, np.frexp(np.abs(stages[:, bad]).max(axis=0))[1])
                coefs[:, bad] = _dense_coefficients(h, delta[bad] / scale, stages[:, bad] / scale) * scale
                coefs[:, np.isnan(delta)] = math.nan
        return coefs


def _error_norm(h, err5, err3):
    """scipy's error norm of a step of size h from its scaled estimates."""
    err5_norm_2 = norm(err5) ** 2
    err3_norm_2 = norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return abs(h) * err5_norm_2 / math.sqrt(denom * err5.size)


def _dense_coefficients(h, delta, stages):
    """The coefficients of the dense-output polynomial of a step of size h
    with increment delta, as in scipy's Dop853DenseOutput."""
    f_old = stages[0]
    coefs = np.empty((INTERPOLATOR_POWER, delta.size))
    coefs[0] = delta
    coefs[1] = h * f_old - delta
    coefs[2] = 2 * delta - h * (stages[N_STAGES] + f_old)
    coefs[3:] = h * D.dot(stages)
    return coefs


def brentq(f, xa, xb):
    """A root of f in [xa, xb], where f changes sign, to within
    ROOT_TOL (1 + |x|): scipy's brentq.c line by line, with scipy.optimize's
    errors (ValueError on a NaN value or no sign change, RuntimeError when
    MAX_ITER iterations do not converge)."""

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(MAX_ITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (ROOT_TOL + ROOT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        bisect_step = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass  # in C an infinite or NaN trial step, which fails the test below
            else:
                bound = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
                if 2 * abs(stry) < bound:  # a good short step
                    spre, scur = scur, stry
                    bisect_step = False
        if bisect_step:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {MAX_ITER} iterations.")
