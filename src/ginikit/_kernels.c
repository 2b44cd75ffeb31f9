/* Compiled accumulation kernel.

   Bit-identical twin of ginikit._kernels_py: same tilt t_i = p * la_i + lw_i
   and shift (the first largest t_i, as Python's max() picks it, which both
   paths of the pure twin take too), same Neumaier compensation branches,
   same association order in every product ((u * d) * d), libm exp.  The
   moments flag is the fourth argument, by position only.  After the tilt a
   full call (moments true, the default) runs two passes: the weight total
   and the first moment side by side, then the centered variance.  A
   total-only call (moments false) runs the weight total's pass alone, with
   the same recurrence in the same order, so its shift and total are the
   full call's bits; its mean and variance are NaN.  Built with
   -ffp-contract=off so no FMA contraction can change a rounding.  Any edit
   here must be replayed in _kernels_py.py and vice versa. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

/* One Neumaier step: add y to the running sum *s and its rounding error to *c. */
static inline void
neumaier_add(double *s, double *c, double y)
{
    double t = *s + y;
    if (fabs(*s) >= fabs(y))
        *c += (*s - t) + y;
    else
        *c += (y - t) + *s;
    *s = t;
}

/* Borrow obj as a 1-D C-contiguous buffer of native float64; ValueError else. */
static int
get_doubles(PyObject *obj, Py_buffer *view)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    const char *f = view->format ? view->format : "B";
    const char *code = f + (*f == '@' || *f == '=' || *f == (PY_LITTLE_ENDIAN ? '<' : '>'));
    if (strcmp(code, "d") == 0 && view->ndim == 1)
        return 0;
    PyErr_Format(PyExc_ValueError, "expected a 1-D float64 buffer, got format '%s' and ndim %d",
                 f, view->ndim);
    PyBuffer_Release(view);
    return -1;
}

static PyObject *
exp_moments(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer av, wv;
    PyObject *result = NULL;
    double *u = NULL;
    int moments = 1;

    if (nargs < 3 || nargs > 4)
        return PyErr_Format(PyExc_TypeError, "exp_moments() takes 3 or 4 arguments (%zd given)",
                            nargs);
    if (nargs == 4 && (moments = PyObject_IsTrue(args[3])) < 0)
        return NULL;
    if (get_doubles(args[0], &av) < 0)
        return NULL;
    if (get_doubles(args[1], &wv) < 0) {
        PyBuffer_Release(&av);
        return NULL;
    }
    const double *la = av.buf, *lw = wv.buf;
    Py_ssize_t n = av.shape[0], i;
    double p = PyFloat_AsDouble(args[2]);
    if (p == -1.0 && PyErr_Occurred())
        goto done;
    if (wv.shape[0] != n) {
        PyErr_SetString(PyExc_ValueError, "logs and log_weights must have equal length");
        goto done;
    }
    if (n == 0) {
        result = Py_BuildValue("(dddd)", -INFINITY, 0.0, (double)NAN, (double)NAN);
        goto done;
    }
    /* u holds the tilt t_i until pass 1 overwrites it with exp(t_i - shift) */
    if ((u = PyMem_Malloc(n * sizeof(double))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    /* the first largest, as Python's max() picks it */
    double shift = u[0] = p * la[0] + lw[0];
    for (i = 1; i < n; i++) {
        double t = p * la[i] + lw[i];
        u[i] = t;
        if (t > shift)
            shift = t;
    }

    double s0 = 0.0, c0 = 0.0, s1 = 0.0, c1 = 0.0;
    if (!moments) {
        for (i = 0; i < n; i++)
            neumaier_add(&s0, &c0, exp(u[i] - shift));
        result = Py_BuildValue("(dddd)", shift, s0 + c0, (double)NAN, (double)NAN);
        goto done;
    }
    for (i = 0; i < n; i++) {
        double x = exp(u[i] - shift);
        u[i] = x;
        neumaier_add(&s0, &c0, x);
        neumaier_add(&s1, &c1, x * la[i]);
    }
    double total = s0 + c0;
    double mean = (s1 + c1) / total;

    s0 = c0 = 0.0;
    for (i = 0; i < n; i++) {
        double d = la[i] - mean;
        neumaier_add(&s0, &c0, (u[i] * d) * d);
    }
    double variance = (s0 + c0) / total;

    result = Py_BuildValue("(dddd)", shift, total, mean, variance);
done:
    PyMem_Free(u);
    PyBuffer_Release(&wv);
    PyBuffer_Release(&av);
    return result;
}

static PyMethodDef methods[] = {
    {"exp_moments", (PyCFunction)(void (*)(void))exp_moments, METH_FASTCALL,
     "exp_moments(logs, log_weights, p, moments=True, /)\n--\n\n"
     "Compensated moments of logs under the tilt t_i = p * logs[i] + log_weights[i].\n\n"
     "Forms t and shift = max t, then sums u_i = exp(t_i - shift) and u_i * logs[i]\n"
     "in one pass and the centered variance in a second.  Returns\n"
     "``(shift, total, mean, variance)``; with moments false only the total is\n"
     "summed and the mean and variance are NaN.  See the pure-Python twin for\n"
     "the exact contract.  Inputs must be 1-D C-contiguous float64 buffers of\n"
     "equal length, summed in array order."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "ginikit._kernels",
    .m_doc = "Compiled accumulation kernel; bit-identical twin of ginikit._kernels_py.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    return PyModule_Create(&module);
}
