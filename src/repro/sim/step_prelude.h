/* The runtime every native compiled step is built with (DESIGN.md section 24).
 *
 * A generated step module is this prelude followed by one step
 * function, the Step type's state and load methods and the module's
 * init.  Raw fixed-point values are int64_t up to 63 bits and __int128
 * up to 127; the helpers below come in both widths.  The helpers that
 * touch Python objects return -1 with an exception set on failure.
 *
 * The step's own variables are named after the model, with the
 * prefixes s_, r_, n_r_, pin_, u_, q<n>_, fsm_, tr_, nfsm_ and res_, so
 * no name declared here starts with one of them: a step variable would
 * shadow it.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef int64_t i64;
typedef uint64_t u64;
typedef __int128 i128;
typedef unsigned __int128 u128;

/* A 128-bit constant from its high (signed) and low 64-bit halves. */
#define I128(hi, lo) ((i128)(((u128)(u64)(hi) << 64) | (u128)(u64)(lo)))
#define K(i) (k[i])

/* -- raw arithmetic ------------------------------------------------------ */

#define RAW_HELPERS(N, T, U)                                                 \
static inline T abs##N(T v) { return v < 0 ? -v : v; }                      \
static inline T shl##N(T v, int n) { return (T)((U)v << n); }                \
static inline T sat##N(T v, T lo, T hi)                                      \
{ return v < lo ? lo : (v > hi ? hi : v); }                                  \
/* The low wl bits of v as a two's-complement word (Python's sign_fold). */  \
static inline T sext##N(T v, int wl)                                         \
{ int s = N - wl; return (T)((U)v << s) >> s; }                              \
static inline T wrap##N(T v, int wl, int sgn)                                \
{                                                                            \
    T low = (T)((U)v & ((((U)1) << wl) - 1));                                \
    return sgn ? sext##N(low, wl) : low;                                     \
}

RAW_HELPERS(64, i64, u64)
RAW_HELPERS(128, i128, u128)

/* Python's a % d for a positive depth d: never negative. */
static inline i64 pymod64(i64 a, i64 d)
{
    i64 r = a % d;
    return r < 0 ? r + d : r;
}

/* -- Python ints --------------------------------------------------------- */

static PyObject *str_get, *str_firings, *str_writes, *str_raw, *str_fmt;
static PyObject *str_frac_bits;
static PyObject *py_zero, *py_one, *py_64, *empty_args;

static PyObject *from128(i128 v)
{
    if (v >= INT64_MIN && v <= INT64_MAX)
        return PyLong_FromLongLong((long long)v);
    PyObject *hi = PyLong_FromLongLong((long long)(v >> 64));
    if (!hi)
        return NULL;
    PyObject *shifted = PyNumber_Lshift(hi, py_64);
    Py_DECREF(hi);
    if (!shifted)
        return NULL;
    PyObject *lo = PyLong_FromUnsignedLongLong((u64)v);
    if (!lo) {
        Py_DECREF(shifted);
        return NULL;
    }
    PyObject *result = PyNumber_Or(shifted, lo);
    Py_DECREF(shifted);
    Py_DECREF(lo);
    return result;
}

static inline PyObject *from64(i64 v) { return PyLong_FromLongLong(v); }

static int as128(PyObject *o, i128 *out)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(o, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (!overflow) {
        *out = v;
        return 0;
    }
    PyObject *hi = PyNumber_Rshift(o, py_64);
    if (!hi)
        return -1;
    long long h = PyLong_AsLongLongAndOverflow(hi, &overflow);
    Py_DECREF(hi);
    if (h == -1 && PyErr_Occurred())
        return -1;
    if (overflow) {
        PyErr_SetString(PyExc_OverflowError,
                        "raw value does not fit 128 bits");
        return -1;
    }
    u64 l = PyLong_AsUnsignedLongLongMask(o);
    if (l == (u64)-1 && PyErr_Occurred())
        return -1;
    *out = I128(h, l);
    return 0;
}

static int as64(PyObject *o, i64 *out)
{
    long long v = PyLong_AsLongLong(o);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

/* -- quantization of Python values (quantize_raw) ------------------------ */

typedef struct {
    int frac, round, overflow, wl, sgn;
    i128 lo, hi;
} QF;
enum { SATURATE = 0, WRAP = 1, ERROR = 2 };

/* The overflow policy; 1 when an ERROR format must raise. */
static int qfit(i128 v, const QF *f, i128 *out)
{
    if (v >= f->lo && v <= f->hi)
        *out = v;
    else if (f->overflow == SATURATE)
        *out = v > f->hi ? f->hi : f->lo;
    else if (f->overflow == WRAP)
        *out = wrap128(v, f->wl, f->sgn);
    else
        return 1;
    return 0;
}

/* A raw integer at binary point `at` into the format (quantize_raw_at);
 * 1 when the value is past this fast path's reach. */
static int qat(i64 n, int at, const QF *f, i128 *out)
{
    int shift = at - f->frac;
    if (shift <= 0) {
        if (n == 0)
            return qfit(0, f, out);
        if (-shift > 60)
            return 1;
        return qfit((i128)((u128)(i128)n << -shift), f, out);
    }
    if (shift > 100)
        return qfit(f->round || n >= 0 ? 0 : -1, f, out);
    i128 v = f->round ? ((i128)n + ((i128)1 << (shift - 1))) >> shift
                      : (i128)n >> shift;
    return qfit(v, f, out);
}

/* quantize_raw(o, fmt): floats, ints and Fx values in C where the result
 * is exact, anything else (and every raise) through the library routine
 * `lib`. */
static int qobj(PyObject *o, const QF *f, PyObject *fmt, PyObject *lib,
                PyObject *fx_type, i128 *out)
{
    int slow = 1;
    if (PyFloat_Check(o)) {
        double d = PyFloat_AS_DOUBLE(o);
        double x = ldexp(d, f->frac);
        /* Scaling by a power of two is exact away from the subnormals. */
        if (isfinite(d) && fabs(x) < 0x1p62
                && (d == 0 || fabs(x) >= 0x1p-1000)) {
            double floor_x = floor(x);
            if (f->round && x - floor_x >= 0.5)
                floor_x += 1;
            slow = qfit((i128)(i64)floor_x, f, out);
        }
    } else if (PyLong_CheckExact(o) || PyBool_Check(o)) {
        int overflow;
        long long n = PyLong_AsLongLongAndOverflow(o, &overflow);
        if (n == -1 && PyErr_Occurred())
            return -1;
        if (!overflow)
            slow = qat(n, 0, f, out);
    } else if (Py_TYPE(o) == (PyTypeObject *)fx_type) {
        PyObject *raw = PyObject_GetAttr(o, str_raw);
        PyObject *ofmt = raw ? PyObject_GetAttr(o, str_fmt) : NULL;
        PyObject *frac = ofmt ? PyObject_GetAttr(ofmt, str_frac_bits) : NULL;
        int overflow = 1;
        long long n = 0, at = 0;
        if (frac) {
            n = PyLong_AsLongLongAndOverflow(raw, &overflow);
            at = PyLong_AsLong(frac);
        }
        Py_XDECREF(raw);
        Py_XDECREF(ofmt);
        Py_XDECREF(frac);
        if (PyErr_Occurred())
            return -1;
        if (!overflow)
            slow = qat(n, (int)at, f, out);
    }
    if (!slow)
        return 0;
    PyObject *args[2] = {o, fmt};
    PyObject *raw = PyObject_Vectorcall(lib, args, 2, NULL);
    if (!raw)
        return -1;
    int rc = as128(raw, out);
    Py_DECREF(raw);
    return rc;
}

/* An Overflow.ERROR boundary over raw values: the first failure of a
 * step raises through the library's check (same message) and sets *err;
 * the step leaves at the end of the statement. */
static i128 chk(i128 v, i128 lo, i128 hi, int *err, PyObject *check)
{
    if (v >= lo && v <= hi)
        return v;
    if (!*err) {
        *err = 1;
        PyObject *args[3] = {from128(v), from128(lo), from128(hi)};
        if (args[0] && args[1] && args[2]) {
            PyObject *r = PyObject_Vectorcall(check, args, 3, NULL);
            if (r) {
                Py_DECREF(r);
                PyErr_SetString(PyExc_SystemError,
                                "overflow check passed a value out of range");
            }
        }
        Py_XDECREF(args[0]);
        Py_XDECREF(args[1]);
        Py_XDECREF(args[2]);
    }
    return lo;
}

/* -- tokens, pins and untimed processes ---------------------------------- */

/* An Fx of a raw value inside its format, built without a range check
 * (object.__new__ and the two slots, as the library's _fx does). */
static PyObject *mkfx(i128 raw, PyObject *fmt, PyObject *fx_type)
{
    PyObject *r = from128(raw);
    if (!r)
        return NULL;
    PyObject *value = PyBaseObject_Type.tp_new((PyTypeObject *)fx_type,
                                               empty_args, NULL);
    if (!value || PyObject_SetAttr(value, str_raw, r)
            || PyObject_SetAttr(value, str_fmt, fmt)) {
        Py_XDECREF(value);
        value = NULL;
    }
    Py_DECREF(r);
    return value;
}

/* pins.get(key, 0) */
static PyObject *get_pin(PyObject *pins, PyObject *key)
{
    if (PyDict_CheckExact(pins)) {
        PyObject *v = PyDict_GetItemWithError(pins, key);
        if (v) {
            Py_INCREF(v);
            return v;
        }
        if (PyErr_Occurred())
            return NULL;
        Py_INCREF(py_zero);
        return py_zero;
    }
    return PyObject_CallMethodObjArgs(pins, str_get, key, py_zero, NULL);
}

/* int(o) % depth */
static int obj_mod(PyObject *o, i64 depth, i64 *out)
{
    PyObject *l = PyNumber_Long(o);
    if (!l)
        return -1;
    int overflow;
    long long n = PyLong_AsLongLongAndOverflow(l, &overflow);
    if (!overflow) {
        Py_DECREF(l);
        if (n == -1 && PyErr_Occurred())
            return -1;
        *out = pymod64(n, depth);
        return 0;
    }
    PyObject *d = PyLong_FromLongLong(depth);
    PyObject *r = d ? PyNumber_Remainder(l, d) : NULL;
    Py_DECREF(l);
    Py_XDECREF(d);
    if (!r)
        return -1;
    int rc = as64(r, out);
    Py_DECREF(r);
    return rc;
}

/* int(o) != 0 */
static int obj_true(PyObject *o, int *out)
{
    PyObject *l = PyNumber_Long(o);
    if (!l)
        return -1;
    *out = PyObject_IsTrue(l);
    Py_DECREF(l);
    return *out < 0 ? -1 : 0;
}

/* mem[index], in place; an index outside the list raises IndexError, as
 * Python's subscript of an index past the end does.  The step reduces
 * every address modulo the depth first, so no index is negative. */
static int mem_index(PyObject *mem, i64 index)
{
    if (!PyList_CheckExact(mem)) {
        PyErr_SetString(PyExc_TypeError, "a RAM's data must be a list");
        return -1;
    }
    if ((u64)index >= (u64)PyList_GET_SIZE(mem)) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    return 0;
}

static PyObject *mem_get(PyObject *mem, i64 index)
{
    if (mem_index(mem, index))
        return NULL;
    PyObject *v = PyList_GET_ITEM(mem, index);
    Py_INCREF(v);
    return v;
}

/* mem[index] = v */
static int mem_set(PyObject *mem, i64 index, PyObject *v)
{
    if (mem_index(mem, index))
        return -1;
    PyObject *old = PyList_GET_ITEM(mem, index);
    Py_INCREF(v);
    PyList_SET_ITEM(mem, index, v);
    Py_DECREF(old);
    return 0;
}

/* obj.<name> += 1 */
static int bump(PyObject *obj, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (!v)
        return -1;
    PyObject *w = PyNumber_InPlaceAdd(v, py_one);
    Py_DECREF(v);
    if (!w)
        return -1;
    int rc = PyObject_SetAttr(obj, name, w);
    Py_DECREF(w);
    return rc;
}

/* A behaviour's result lacks a token: the cycle scheduler's typed error
 * when an output is missing (through `no_token`), else the lookup's. */
static void no_token(PyObject *fn, PyObject *proc, PyObject *result)
{
    if (!PyErr_ExceptionMatches(PyExc_KeyError)
            && !PyErr_ExceptionMatches(PyExc_TypeError))
        return;
    PyObject *type, *value, *tb;
    PyErr_Fetch(&type, &value, &tb);
    PyObject *args[2] = {proc, result ? result : Py_None};
    PyObject *r = PyObject_Vectorcall(fn, args, 2, NULL);
    if (r) {
        Py_DECREF(r);
        PyErr_Restore(type, value, tb);
    } else {
        Py_XDECREF(type);
        Py_XDECREF(value);
        Py_XDECREF(tb);
    }
}

#define SETOBJ(var, expr)                                                    \
    do {                                                                     \
        PyObject *set_ = (expr);                                             \
        if (!set_)                                                           \
            goto fail;                                                       \
        Py_XSETREF(var, set_);                                               \
    } while (0)

static int prelude_init(void)
{
    str_get = PyUnicode_InternFromString("get");
    str_firings = PyUnicode_InternFromString("firings");
    str_writes = PyUnicode_InternFromString("writes");
    str_raw = PyUnicode_InternFromString("_raw");
    str_fmt = PyUnicode_InternFromString("_fmt");
    str_frac_bits = PyUnicode_InternFromString("frac_bits");
    py_zero = PyLong_FromLong(0);
    py_one = PyLong_FromLong(1);
    py_64 = PyLong_FromLong(64);
    empty_args = PyTuple_New(0);
    return str_get && str_firings && str_writes && str_raw && str_fmt
        && str_frac_bits && py_zero && py_one && py_64 && empty_args ? 0 : -1;
}
