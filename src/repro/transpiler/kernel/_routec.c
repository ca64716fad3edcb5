/*
 * Compiled twins of the two hottest loops of the flat route kernel.
 *
 * ``RouteKernel`` binds, for one routing run, the static int arrays of a
 * ``NeighborTable`` (hop distances, edge endpoints, incident-edge CSR) and
 * of an ``IntDAG`` (qubit columns, node kinds, successor CSR).  They are
 * read in place through the buffer protocol; nothing is copied.  Two
 * methods mirror the pure-Python reference in ``route.py`` exactly:
 *
 *   swap_ties(front, extended, v2p, decay, weight)
 *       the connected-graph path of ``route._swap_ties``: candidate
 *       edges, integer window sums with per-edge deltas, the float score
 *       in the same operation order, and the 1e-12 tolerance scan.  It
 *       returns the tie list in candidate order; the caller makes the
 *       single RNG draw, so per-trial random streams are unchanged.
 *   extended_ids(roots, limit)
 *       ``KernelState.extended_ids``, the lookahead BFS.
 *
 * Every index read from a Python object or an array is bounds-checked; a
 * bad index raises ``TranspilerError``.  No Python code runs while the
 * scratch buffers are live (list items are read with the concrete
 * int/float C API), so a kernel is never re-entered mid-call.
 *
 * Build flags must keep IEEE semantics: -O2 -fPIC -shared
 * -ffp-contract=off (no FMA contraction, no -ffast-math).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

static PyObject *TranspilerError;

typedef struct {
    PyObject_HEAD
    Py_buffer views[10];
    int num_views;
    /* NeighborTable */
    const int64_t *dist;     /* row-major num_qubits x num_qubits */
    const int64_t *edges_a;
    const int64_t *edges_b;
    const int64_t *inc_ptr;  /* num_qubits + 1 */
    const int64_t *inc_ids;
    Py_ssize_t num_qubits, num_edges, num_inc;
    /* IntDAG */
    const int32_t *qubit0;
    const int32_t *qubit1;
    const uint8_t *kind;
    const int64_t *succ_ptr; /* num_nodes + 1 */
    const int32_t *succ_ids;
    Py_ssize_t num_nodes, num_succ;
    int kind_check2;
    /* Scratch, all reset before a call returns. */
    Py_ssize_t *head;        /* per physical qubit: first bucket entry, -1 */
    uint8_t *edge_mark;      /* per edge: already a candidate */
    Py_ssize_t *cand;        /* candidate edge ids */
    Py_ssize_t *ties;        /* tied edge ids */
    uint32_t *stamp;         /* per node: BFS epoch of the last visit */
    uint32_t epoch;
    Py_ssize_t *queue;
    Py_ssize_t queue_cap;
    Py_ssize_t *pair_left, *pair_right, *entry_pair, *entry_next;
    Py_ssize_t pair_cap;
} RouteKernel;

/* -- helpers -------------------------------------------------------------- */

static int
bind_array(RouteKernel *self, PyObject *obj, Py_ssize_t itemsize,
           const char *name, const void **data, Py_ssize_t *length)
{
    Py_buffer *view = &self->views[self->num_views];
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    self->num_views++;
    const char *format = view->format ? view->format : "B";
    if (*format == '@' || *format == '=')
        format++;
    if (view->itemsize != itemsize || format[0] == '\0' || format[1] != '\0'
        || !strchr("bBhHiIlLqQ", format[0])) {
        PyErr_Format(TranspilerError,
                     "route kernel: %s must be a contiguous %zd-byte "
                     "integer array", name, itemsize);
        return -1;
    }
    *data = view->buf;
    *length = view->len / itemsize;
    return 0;
}

static int
index_error(const char *what, Py_ssize_t value, Py_ssize_t limit)
{
    PyErr_Format(TranspilerError,
                 "route kernel: %s %zd out of range [0, %zd)",
                 what, value, limit);
    return -1;
}

/* list[position] as an index in [0, limit). */
static int
read_index(PyObject *list, Py_ssize_t position, Py_ssize_t limit,
           const char *what, Py_ssize_t *out)
{
    if (position < 0 || position >= PyList_GET_SIZE(list))
        return index_error(what, position, PyList_GET_SIZE(list));
    PyObject *item = PyList_GET_ITEM(list, position);
    if (!PyLong_Check(item)) {
        PyErr_Format(TranspilerError, "route kernel: %s must be an int",
                     what);
        return -1;
    }
    Py_ssize_t value = PyLong_AsSsize_t(item);
    if (value == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        PyErr_Format(TranspilerError, "route kernel: %s out of range", what);
        return -1;
    }
    if (value < 0 || value >= limit)
        return index_error(what, value, limit);
    *out = value;
    return 0;
}

static int
read_decay(PyObject *decay, Py_ssize_t qubit, double *out)
{
    if (qubit >= PyList_GET_SIZE(decay))
        return index_error("decay qubit", qubit, PyList_GET_SIZE(decay));
    PyObject *item = PyList_GET_ITEM(decay, qubit);
    if (PyFloat_Check(item)) {
        *out = PyFloat_AS_DOUBLE(item);
        return 0;
    }
    if (PyLong_Check(item)) {
        *out = PyLong_AsDouble(item);
        return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
    }
    PyErr_SetString(TranspilerError, "route kernel: decay must be floats");
    return -1;
}

/* Physical qubit of ``virtual`` (an IntDAG qubit column entry). */
static int
physical_of(PyObject *v2p, RouteKernel *self, Py_ssize_t virtual,
            Py_ssize_t *out)
{
    if (virtual < 0 || virtual >= PyList_GET_SIZE(v2p))
        return index_error("virtual qubit", virtual, PyList_GET_SIZE(v2p));
    return read_index(v2p, virtual, self->num_qubits, "physical qubit", out);
}

static int
edge_endpoints(RouteKernel *self, Py_ssize_t edge, Py_ssize_t *a,
               Py_ssize_t *b)
{
    *a = (Py_ssize_t)self->edges_a[edge];
    *b = (Py_ssize_t)self->edges_b[edge];
    if (*a < 0 || *a >= self->num_qubits)
        return index_error("edge endpoint", *a, self->num_qubits);
    if (*b < 0 || *b >= self->num_qubits)
        return index_error("edge endpoint", *b, self->num_qubits);
    return 0;
}

static int
grow_pairs(RouteKernel *self, Py_ssize_t needed)
{
    if (needed <= self->pair_cap)
        return 0;
    Py_ssize_t cap = needed < 64 ? 64 : needed * 2;
    Py_ssize_t *left = PyMem_Realloc(self->pair_left, cap * sizeof(Py_ssize_t));
    if (left == NULL) goto nomem;
    self->pair_left = left;
    Py_ssize_t *right = PyMem_Realloc(self->pair_right, cap * sizeof(Py_ssize_t));
    if (right == NULL) goto nomem;
    self->pair_right = right;
    Py_ssize_t *pair = PyMem_Realloc(self->entry_pair, 2 * cap * sizeof(Py_ssize_t));
    if (pair == NULL) goto nomem;
    self->entry_pair = pair;
    Py_ssize_t *next = PyMem_Realloc(self->entry_next, 2 * cap * sizeof(Py_ssize_t));
    if (next == NULL) goto nomem;
    self->entry_next = next;
    self->pair_cap = cap;
    return 0;
nomem:
    PyErr_NoMemory();
    return -1;
}

/* Mark the edges incident to ``qubit`` as candidates. */
static int
add_incident(RouteKernel *self, Py_ssize_t qubit, Py_ssize_t *num_cand)
{
    int64_t start = self->inc_ptr[qubit], stop = self->inc_ptr[qubit + 1];
    if (start < 0 || start > stop || stop > self->num_inc) {
        PyErr_SetString(TranspilerError,
                        "route kernel: malformed incident-edge index");
        return -1;
    }
    for (int64_t k = start; k < stop; k++) {
        int64_t edge = self->inc_ids[k];
        if (edge < 0 || edge >= self->num_edges)
            return index_error("edge id", (Py_ssize_t)edge, self->num_edges);
        if (!self->edge_mark[edge]) {
            self->edge_mark[edge] = 1;
            self->cand[(*num_cand)++] = (Py_ssize_t)edge;
        }
    }
    return 0;
}

static int
compare_ids(const void *x, const void *y)
{
    Py_ssize_t a = *(const Py_ssize_t *)x, b = *(const Py_ssize_t *)y;
    return (a > b) - (a < b);
}

/* Window-sum change of the pairs in ``qubit``'s bucket when the edge
 * (qubit, other) swaps.  A bucketed pair touches ``qubit`` on exactly one
 * side; pairs touching both endpoints keep their distance. */
static void
bucket_deltas(RouteKernel *self, Py_ssize_t qubit, Py_ssize_t other,
              Py_ssize_t num_front, int64_t *front_sum, int64_t *ext_sum)
{
    const int64_t *dist = self->dist;
    Py_ssize_t stride = self->num_qubits;
    for (Py_ssize_t k = self->head[qubit]; k >= 0; k = self->entry_next[k]) {
        Py_ssize_t pair = self->entry_pair[k];
        Py_ssize_t left = self->pair_left[pair], right = self->pair_right[pair];
        int64_t delta;
        if (left == qubit) {
            if (right == other)
                continue;
            delta = dist[other * stride + right] - dist[qubit * stride + right];
        }
        else {
            if (left == other)
                continue;
            delta = dist[left * stride + other] - dist[left * stride + qubit];
        }
        if (pair < num_front)
            *front_sum += delta;
        else
            *ext_sum += delta;
    }
}

/* -- RouteKernel.swap_ties ------------------------------------------------ */

static PyObject *
RouteKernel_swap_ties(RouteKernel *self, PyObject *const *args,
                      Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "swap_ties(front, extended, v2p, decay, weight)");
        return NULL;
    }
    PyObject *front = args[0], *extended = args[1], *v2p = args[2];
    PyObject *decay = args[3];
    if (!PyList_Check(front) || !PyList_Check(extended) || !PyList_Check(v2p)
        || !PyList_Check(decay)) {
        PyErr_SetString(PyExc_TypeError,
                        "swap_ties: front, extended, v2p and decay must be lists");
        return NULL;
    }
    double weight = PyFloat_AsDouble(args[4]);
    if (weight == -1.0 && PyErr_Occurred())
        return NULL;

    Py_ssize_t num_front = PyList_GET_SIZE(front);
    Py_ssize_t num_ext = PyList_GET_SIZE(extended);
    Py_ssize_t num_pairs = num_front + num_ext;
    if (grow_pairs(self, num_pairs) < 0)
        return NULL;

    PyObject *result = NULL;
    Py_ssize_t num_cand = 0, num_entries = 0, num_built = 0, num_ties = 0;
    Py_ssize_t stride = self->num_qubits;

    /* Physical pairs of the front and extended gates; candidates are the
     * edges incident to the front pairs' qubits. */
    for (Py_ssize_t i = 0; i < num_pairs; i++) {
        PyObject *group = i < num_front ? front : extended;
        Py_ssize_t node, left, right;
        if (read_index(group, i < num_front ? i : i - num_front,
                       self->num_nodes, "node id", &node) < 0
            || physical_of(v2p, self, self->qubit0[node], &left) < 0
            || physical_of(v2p, self, self->qubit1[node], &right) < 0)
            goto done;
        self->pair_left[i] = left;
        self->pair_right[i] = right;
        if (i < num_front && (add_incident(self, left, &num_cand) < 0
                              || add_incident(self, right, &num_cand) < 0))
            goto done;
    }
    if (num_cand == 0) {
        PyErr_SetString(TranspilerError,
                        "no SWAP candidates: the coupling graph is likely "
                        "disconnected");
        goto done;
    }
    /* Edge ids are lex-sorted (a, b) pairs: sorted ids = sorted edges. */
    qsort(self->cand, num_cand, sizeof(Py_ssize_t), compare_ids);

    /* Window sums, and per physical qubit a bucket of the pairs on it. */
    int64_t front_sum0 = 0, ext_sum0 = 0;
    for (Py_ssize_t pair = 0; pair < num_pairs; pair++) {
        Py_ssize_t left = self->pair_left[pair], right = self->pair_right[pair];
        int64_t d = self->dist[left * stride + right];
        if (pair < num_front)
            front_sum0 += d;
        else
            ext_sum0 += d;
        self->entry_pair[num_entries] = pair;
        self->entry_next[num_entries] = self->head[left];
        self->head[left] = num_entries++;
        if (right != left) {
            self->entry_pair[num_entries] = pair;
            self->entry_next[num_entries] = self->head[right];
            self->head[right] = num_entries++;
        }
        num_built = pair + 1;
    }

    /* Score every candidate in the Python scorer's operation order; the
     * tolerance scan is an order-dependent recurrence, kept sequential. */
    double best_score = Py_HUGE_VAL;
    for (Py_ssize_t c = 0; c < num_cand; c++) {
        Py_ssize_t edge = self->cand[c], edge_a, edge_b;
        if (edge_endpoints(self, edge, &edge_a, &edge_b) < 0)
            goto done;
        int64_t front_sum = front_sum0, ext_sum = ext_sum0;
        bucket_deltas(self, edge_a, edge_b, num_front, &front_sum, &ext_sum);
        bucket_deltas(self, edge_b, edge_a, num_front, &front_sum, &ext_sum);
        double score = (double)front_sum / (double)num_front;
        if (num_ext)
            score += weight * (double)ext_sum / (double)num_ext;
        double decay_a, decay_b;
        if (read_decay(decay, edge_a, &decay_a) < 0
            || read_decay(decay, edge_b, &decay_b) < 0)
            goto done;
        score = score * (decay_a >= decay_b ? decay_a : decay_b);
        double diff = score - best_score;
        if (diff < -1e-12) {
            best_score = score;
            num_ties = 0;
            self->ties[num_ties++] = edge;
        }
        else if (diff <= 1e-12) {
            self->ties[num_ties++] = edge;
        }
    }
    if (num_ties == 0) {
        PyErr_SetString(TranspilerError,
                        "cannot route: some target qubits are unreachable on "
                        "this coupling map");
        goto done;
    }

    result = PyList_New(num_ties);
    if (result == NULL)
        goto done;
    for (Py_ssize_t t = 0; t < num_ties; t++) {
        Py_ssize_t edge_a, edge_b;
        edge_endpoints(self, self->ties[t], &edge_a, &edge_b);
        PyObject *pair = Py_BuildValue("(nn)", edge_a, edge_b);
        if (pair == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, t, pair);
    }

done:
    for (Py_ssize_t c = 0; c < num_cand; c++)
        self->edge_mark[self->cand[c]] = 0;
    for (Py_ssize_t pair = 0; pair < num_built; pair++) {
        self->head[self->pair_left[pair]] = -1;
        self->head[self->pair_right[pair]] = -1;
    }
    return result;
}

/* -- RouteKernel.extended_ids --------------------------------------------- */

static PyObject *
RouteKernel_extended_ids(RouteKernel *self, PyObject *const *args,
                         Py_ssize_t nargs)
{
    if (nargs != 2 || !PyList_Check(args[0])) {
        PyErr_SetString(PyExc_TypeError,
                        "extended_ids(roots: list, limit: int)");
        return NULL;
    }
    PyObject *roots = args[0];
    Py_ssize_t limit = PyLong_AsSsize_t(args[1]);
    if (limit == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t num_roots = PyList_GET_SIZE(roots);
    Py_ssize_t needed = num_roots + self->num_nodes;
    if (needed > self->queue_cap) {
        Py_ssize_t *queue = PyMem_Realloc(self->queue,
                                          (needed ? needed : 1) * sizeof(Py_ssize_t));
        if (queue == NULL)
            return PyErr_NoMemory();
        self->queue = queue;
        self->queue_cap = needed;
    }
    if (++self->epoch == 0) {
        memset(self->stamp, 0, (self->num_nodes ? self->num_nodes : 1)
                                   * sizeof(uint32_t));
        self->epoch = 1;
    }
    uint32_t epoch = self->epoch;
    Py_ssize_t head = 0, tail = 0;
    for (Py_ssize_t i = 0; i < num_roots; i++) {
        Py_ssize_t root;
        if (read_index(roots, i, self->num_nodes, "node id", &root) < 0)
            return NULL;
        self->stamp[root] = epoch;
        self->queue[tail++] = root;
    }

    PyObject *result = PyList_New(0);
    if (result == NULL)
        return NULL;
    Py_ssize_t found = 0;
    while (head < tail && found < limit) {
        Py_ssize_t node = self->queue[head++];
        int64_t start = self->succ_ptr[node], stop = self->succ_ptr[node + 1];
        if (start < 0 || start > stop || stop > self->num_succ) {
            PyErr_SetString(TranspilerError,
                            "route kernel: malformed successor index");
            goto fail;
        }
        for (int64_t k = start; k < stop; k++) {
            Py_ssize_t successor = self->succ_ids[k];
            if (successor < 0 || successor >= self->num_nodes) {
                index_error("successor id", successor, self->num_nodes);
                goto fail;
            }
            if (self->stamp[successor] == epoch)
                continue;
            self->stamp[successor] = epoch;
            self->queue[tail++] = successor;
            if (self->kind[successor] == self->kind_check2) {
                PyObject *id = PyLong_FromSsize_t(successor);
                if (id == NULL || PyList_Append(result, id) < 0) {
                    Py_XDECREF(id);
                    goto fail;
                }
                Py_DECREF(id);
                if (++found >= limit)
                    break;
            }
        }
    }
    return result;
fail:
    Py_DECREF(result);
    return NULL;
}

/* -- type plumbing -------------------------------------------------------- */

static void
RouteKernel_dealloc(RouteKernel *self)
{
    for (int i = 0; i < self->num_views; i++)
        PyBuffer_Release(&self->views[i]);
    PyMem_Free(self->head);
    PyMem_Free(self->edge_mark);
    PyMem_Free(self->cand);
    PyMem_Free(self->ties);
    PyMem_Free(self->stamp);
    PyMem_Free(self->queue);
    PyMem_Free(self->pair_left);
    PyMem_Free(self->pair_right);
    PyMem_Free(self->entry_pair);
    PyMem_Free(self->entry_next);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
RouteKernel_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    PyObject *dist, *edges_a, *edges_b, *inc_ptr, *inc_ids;
    PyObject *qubit0, *qubit1, *kind, *succ_ptr, *succ_ids;
    int kind_check2;
    if (kwargs != NULL && PyDict_GET_SIZE(kwargs)) {
        PyErr_SetString(PyExc_TypeError, "RouteKernel takes positional arguments");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "OOOOOOOOOOi:RouteKernel", &dist, &edges_a,
                          &edges_b, &inc_ptr, &inc_ids, &qubit0, &qubit1,
                          &kind, &succ_ptr, &succ_ids, &kind_check2))
        return NULL;
    RouteKernel *self = (RouteKernel *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    Py_ssize_t num_dist, num_b, num_ptr, num_q1, num_kind, num_sptr;
    if (bind_array(self, dist, 8, "dist_int", (const void **)&self->dist, &num_dist) < 0
        || bind_array(self, edges_a, 8, "edges_a", (const void **)&self->edges_a, &self->num_edges) < 0
        || bind_array(self, edges_b, 8, "edges_b", (const void **)&self->edges_b, &num_b) < 0
        || bind_array(self, inc_ptr, 8, "incident indptr", (const void **)&self->inc_ptr, &num_ptr) < 0
        || bind_array(self, inc_ids, 8, "incident ids", (const void **)&self->inc_ids, &self->num_inc) < 0
        || bind_array(self, qubit0, 4, "qubit0", (const void **)&self->qubit0, &self->num_nodes) < 0
        || bind_array(self, qubit1, 4, "qubit1", (const void **)&self->qubit1, &num_q1) < 0
        || bind_array(self, kind, 1, "kind", (const void **)&self->kind, &num_kind) < 0
        || bind_array(self, succ_ptr, 8, "succ_indptr", (const void **)&self->succ_ptr, &num_sptr) < 0
        || bind_array(self, succ_ids, 4, "succ_ids", (const void **)&self->succ_ids, &self->num_succ) < 0)
        goto fail;
    self->num_qubits = num_ptr - 1;
    self->kind_check2 = kind_check2;
    if (self->num_qubits < 0 || num_dist != self->num_qubits * self->num_qubits
        || num_b != self->num_edges || num_q1 != self->num_nodes
        || num_kind != self->num_nodes || num_sptr != self->num_nodes + 1) {
        PyErr_SetString(TranspilerError,
                        "route kernel: inconsistent table or DAG array sizes");
        goto fail;
    }
    Py_ssize_t qubits = self->num_qubits ? self->num_qubits : 1;
    Py_ssize_t edges = self->num_edges ? self->num_edges : 1;
    Py_ssize_t nodes = self->num_nodes ? self->num_nodes : 1;
    self->head = PyMem_Malloc(qubits * sizeof(Py_ssize_t));
    self->edge_mark = PyMem_Calloc(edges, 1);
    self->cand = PyMem_Malloc(edges * sizeof(Py_ssize_t));
    self->ties = PyMem_Malloc(edges * sizeof(Py_ssize_t));
    self->stamp = PyMem_Calloc(nodes, sizeof(uint32_t));
    if (!self->head || !self->edge_mark || !self->cand || !self->ties
        || !self->stamp) {
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t q = 0; q < self->num_qubits; q++)
        self->head[q] = -1;
    return (PyObject *)self;
fail:
    Py_DECREF(self);
    return NULL;
}

static PyMethodDef RouteKernel_methods[] = {
    {"swap_ties", (PyCFunction)(void (*)(void))RouteKernel_swap_ties,
     METH_FASTCALL,
     "swap_ties(front, extended, v2p, decay, weight) -> list of tied edges"},
    {"extended_ids", (PyCFunction)(void (*)(void))RouteKernel_extended_ids,
     METH_FASTCALL,
     "extended_ids(roots, limit) -> lookahead two-qubit node ids"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject RouteKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.transpiler.kernel._routec.RouteKernel",
    .tp_basicsize = sizeof(RouteKernel),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Flat route-kernel arrays bound for native scoring and lookahead.",
    .tp_new = RouteKernel_new,
    .tp_dealloc = (destructor)RouteKernel_dealloc,
    .tp_methods = RouteKernel_methods,
};

static struct PyModuleDef routec_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_routec",
    .m_doc = "Native SWAP scorer and lookahead walk of the flat route kernel.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__routec(void)
{
    PyObject *exceptions = PyImport_ImportModule("repro.exceptions");
    if (exceptions == NULL)
        return NULL;
    TranspilerError = PyObject_GetAttrString(exceptions, "TranspilerError");
    Py_DECREF(exceptions);
    if (TranspilerError == NULL)
        return NULL;
    if (PyType_Ready(&RouteKernelType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&routec_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&RouteKernelType);
    if (PyModule_AddObject(module, "RouteKernel",
                           (PyObject *)&RouteKernelType) < 0) {
        Py_DECREF(&RouteKernelType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
