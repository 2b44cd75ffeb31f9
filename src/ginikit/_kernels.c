/* Compiled accumulation kernel.

   Bit-identical twin of ginikit._kernels_py: same Neumaier compensation
   branches, same association order in every product ((u * d) * d), libm exp.
   Built with -ffp-contract=off so no FMA contraction can change a rounding.
   Any edit here must be replayed in _kernels_py.py and vice versa. */

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
    Py_buffer ev, lv;
    PyObject *result = NULL;
    double *u = NULL;

    if (nargs != 3)
        return PyErr_Format(PyExc_TypeError, "exp_moments() takes 3 arguments (%zd given)", nargs);
    if (get_doubles(args[0], &ev) < 0)
        return NULL;
    if (get_doubles(args[1], &lv) < 0) {
        PyBuffer_Release(&ev);
        return NULL;
    }
    const double *e = ev.buf, *lg = lv.buf;
    Py_ssize_t n = ev.shape[0], i;
    double shift = PyFloat_AsDouble(args[2]);
    if (shift == -1.0 && PyErr_Occurred())
        goto done;
    if (lv.shape[0] != n) {
        PyErr_SetString(PyExc_ValueError, "exponents and logs must have equal length");
        goto done;
    }
    /* PyMem_Malloc(0) returns a valid pointer, so n = 0 gives (0.0, nan, nan) */
    if ((u = PyMem_Malloc(n * sizeof(double))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    double s = 0.0, c = 0.0;
    for (i = 0; i < n; i++) {
        u[i] = exp(e[i] - shift);
        neumaier_add(&s, &c, u[i]);
    }
    double total = s + c;

    s = c = 0.0;
    for (i = 0; i < n; i++)
        neumaier_add(&s, &c, u[i] * lg[i]);
    double mean = (s + c) / total;

    s = c = 0.0;
    for (i = 0; i < n; i++) {
        double d = lg[i] - mean;
        neumaier_add(&s, &c, (u[i] * d) * d);
    }
    double variance = (s + c) / total;

    result = Py_BuildValue("(ddd)", total, mean, variance);
done:
    PyMem_Free(u);
    PyBuffer_Release(&lv);
    PyBuffer_Release(&ev);
    return result;
}

static PyMethodDef methods[] = {
    {"exp_moments", (PyCFunction)(void (*)(void))exp_moments, METH_FASTCALL,
     "exp_moments(exponents, logs, shift, /)\n--\n\n"
     "Compensated moment sums of the weights u_i = exp(exponents[i] - shift).\n\n"
     "Returns ``(total, mean, variance)``; see the pure-Python twin for the\n"
     "exact contract.  Inputs must be 1-D C-contiguous float64 buffers of\n"
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
