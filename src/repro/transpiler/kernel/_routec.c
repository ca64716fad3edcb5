/*
 * The flat route kernel's loop, compiled.
 *
 * ``RouteKernel`` binds, for one routing run, the static int arrays of a
 * ``NeighborTable`` (hop distances, edge endpoints, incident-edge CSR) and
 * of an ``IntDAG`` (qubit columns, node kinds, successor CSR).  They are
 * read in place through the buffer protocol; nothing is copied.  Three
 * methods mirror the pure-Python reference in ``route.py`` exactly:
 *
 *   route(v2p, p2v, rng, gates, gate_ids, indegree, qarg_indptr, qargs,
 *         kind_free, swap_gate, extended_set_size, extended_set_weight,
 *         decay_delta, decay_reset_interval, stall_limit, mirror)
 *       the whole ``route.route_kernel`` loop on a connected coupling:
 *       front advance, executability, emission of the ``(gate, physical)``
 *       op list, SWAP choice, decay and its reset, the stall limit and,
 *       when ``mirror`` is a ``route.MirrorRule``, MIRAGE's mirror
 *       decision and the weighted critical-path depth of the emitted ops
 *       (the running per-wire maxima of ``metrics._walk``, priced with
 *       the rule's raw prices).  A slot's mirror gate is read from the
 *       rule's shared list; the first acceptance of a slot whose entry
 *       is ``None`` calls the rule's ``accepted_mirror(slot)``, which
 *       builds and stores it.  Returns ``(ops, swaps_added,
 *       mirrors_accepted, mirror_candidates, depth)``, ``depth`` being
 *       ``None`` without a rule, and writes the final layout into ``v2p``
 *       and ``p2v``.
 *   swap_ties(front, extended, v2p, decay, weight)
 *       the connected-graph path of ``route._swap_ties``: candidate
 *       edges, integer window sums with per-edge deltas, the float score
 *       in the same operation order, and the 1e-12 tolerance scan.
 *   extended_ids(roots, limit)
 *       ``KernelState.extended_ids``, the lookahead BFS.
 *
 * Python runs inside ``route`` at exactly one point: the tie-break draw
 * ``rng.integers(len(ties))``, made only when more than one edge ties
 * (``integers(1)`` consumes no random bits, so skipping it leaves the
 * stream unchanged).  A kernel belongs to one routing run, and a call
 * that arrives while ``route`` is running raises instead of touching the
 * scratch buffers.
 *
 * Every index read from a Python object or an array is bounds-checked; a
 * bad index raises ``TranspilerError`` and never crashes.
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
static PyObject *str_integers;

typedef struct {
    PyObject_HEAD
    Py_buffer views[10];
    int num_views;
    int busy;                /* inside route() */
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
    /* Scratch; the per-call parts are reset before a call returns. */
    Py_ssize_t *head;        /* per physical qubit: first bucket entry, -1 */
    uint8_t *edge_mark;      /* per edge: already a candidate */
    Py_ssize_t *cand;        /* candidate edge ids */
    Py_ssize_t *ties;        /* tied edge ids */
    double *decay;           /* per physical qubit */
    Py_ssize_t *window;      /* lookahead node ids */
    uint32_t *stamp;         /* per node: BFS epoch of the last visit */
    uint32_t epoch;
    Py_ssize_t *queue;
    Py_ssize_t queue_cap;
    Py_ssize_t *pair_left, *pair_right, *entry_pair, *entry_next;
    Py_ssize_t pair_cap;
} RouteKernel;

/* -- helpers -------------------------------------------------------------- */

static int
bind_buffer(Py_buffer *view, PyObject *obj, Py_ssize_t itemsize,
            const char *name, const void **data, Py_ssize_t *length)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    const char *format = view->format ? view->format : "B";
    if (*format == '@' || *format == '=')
        format++;
    if (view->itemsize != itemsize || format[0] == '\0' || format[1] != '\0'
        || !strchr("bBhHiIlLqQ", format[0])) {
        PyBuffer_Release(view);
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
bind_array(RouteKernel *self, PyObject *obj, Py_ssize_t itemsize,
           const char *name, const void **data, Py_ssize_t *length)
{
    if (bind_buffer(&self->views[self->num_views], obj, itemsize, name, data,
                    length) < 0)
        return -1;
    self->num_views++;
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

static int
check_index(const char *what, Py_ssize_t value, Py_ssize_t limit)
{
    return (value < 0 || value >= limit) ? index_error(what, value, limit) : 0;
}

static int
refuse_reentry(RouteKernel *self)
{
    if (!self->busy)
        return 0;
    PyErr_SetString(TranspilerError,
                    "route kernel: called while its routing run is active");
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

/* The first ``count`` items of a list of floats (or ints) into ``out``. */
static int
read_doubles(PyObject *list, Py_ssize_t count, const char *what, double *out)
{
    if (!PyList_Check(list) || PyList_GET_SIZE(list) < count) {
        PyErr_Format(TranspilerError,
                     "route kernel: %s must be a list of at least %zd floats",
                     what, count);
        return -1;
    }
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *item = PyList_GET_ITEM(list, i);
        if (PyFloat_Check(item))
            out[i] = PyFloat_AS_DOUBLE(item);
        else if (PyLong_Check(item)) {
            out[i] = PyLong_AsDouble(item);
            if (out[i] == -1.0 && PyErr_Occurred())
                return -1;
        }
        else {
            PyErr_Format(TranspilerError, "route kernel: %s must be floats",
                         what);
            return -1;
        }
    }
    return 0;
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

static int
grow_queue(RouteKernel *self, Py_ssize_t needed)
{
    if (needed <= self->queue_cap)
        return 0;
    Py_ssize_t *queue = PyMem_Realloc(self->queue, needed * sizeof(Py_ssize_t));
    if (queue == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->queue = queue;
    self->queue_cap = needed;
    return 0;
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

/* -- the SWAP scorer ------------------------------------------------------ */

/* Tied best SWAP edges, in candidate order, into ``self->ties``.
 *
 * The physical pairs are ``pair_left/pair_right[0 .. num_pairs)``, with
 * qubits already checked against ``num_qubits``; the first ``num_front``
 * are the front group.  Returns the tie count, or -1 with an error set. */
static Py_ssize_t
score_ties(RouteKernel *self, Py_ssize_t num_front, Py_ssize_t num_pairs,
           const double *decay, double weight)
{
    Py_ssize_t num_cand = 0, num_entries = 0, num_built = 0, num_ties = -1;
    Py_ssize_t stride = self->num_qubits;
    Py_ssize_t num_ext = num_pairs - num_front;

    /* Candidates are the edges incident to the front pairs' qubits. */
    for (Py_ssize_t i = 0; i < num_front; i++)
        if (add_incident(self, self->pair_left[i], &num_cand) < 0
            || add_incident(self, self->pair_right[i], &num_cand) < 0)
            goto done;
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
    Py_ssize_t count = 0;
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
        double decay_a = decay[edge_a], decay_b = decay[edge_b];
        score = score * (decay_a >= decay_b ? decay_a : decay_b);
        double diff = score - best_score;
        if (diff < -1e-12) {
            best_score = score;
            count = 0;
            self->ties[count++] = edge;
        }
        else if (diff <= 1e-12) {
            self->ties[count++] = edge;
        }
    }
    if (count == 0) {
        PyErr_SetString(TranspilerError,
                        "cannot route: some target qubits are unreachable on "
                        "this coupling map");
        goto done;
    }
    num_ties = count;

done:
    for (Py_ssize_t c = 0; c < num_cand; c++)
        self->edge_mark[self->cand[c]] = 0;
    for (Py_ssize_t pair = 0; pair < num_built; pair++) {
        self->head[self->pair_left[pair]] = -1;
        self->head[self->pair_right[pair]] = -1;
    }
    return num_ties;
}

/* -- the lookahead walk --------------------------------------------------- */

/* BFS from ``roots`` (checked node ids) in visit order, writing up to
 * ``limit`` two-qubit node ids to ``out`` (room for ``num_nodes``).
 * Returns the count, or -1 with an error set. */
static Py_ssize_t
window_bfs(RouteKernel *self, const Py_ssize_t *roots, Py_ssize_t num_roots,
           Py_ssize_t limit, Py_ssize_t *out)
{
    if (grow_queue(self, num_roots + self->num_nodes + 1) < 0)
        return -1;
    if (++self->epoch == 0) {
        memset(self->stamp, 0, (self->num_nodes ? self->num_nodes : 1)
                                   * sizeof(uint32_t));
        self->epoch = 1;
    }
    uint32_t epoch = self->epoch;
    Py_ssize_t head = 0, tail = 0, found = 0;
    for (Py_ssize_t i = 0; i < num_roots; i++) {
        self->stamp[roots[i]] = epoch;
        self->queue[tail++] = roots[i];
    }
    while (head < tail && found < limit) {
        Py_ssize_t node = self->queue[head++];
        int64_t start = self->succ_ptr[node], stop = self->succ_ptr[node + 1];
        if (start < 0 || start > stop || stop > self->num_succ) {
            PyErr_SetString(TranspilerError,
                            "route kernel: malformed successor index");
            return -1;
        }
        for (int64_t k = start; k < stop; k++) {
            Py_ssize_t successor = self->succ_ids[k];
            if (check_index("successor id", successor, self->num_nodes) < 0)
                return -1;
            if (self->stamp[successor] == epoch)
                continue;
            self->stamp[successor] = epoch;
            self->queue[tail++] = successor;
            if (self->kind[successor] == self->kind_check2) {
                out[found++] = successor;
                if (found >= limit)
                    break;
            }
        }
    }
    return found;
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
    if (refuse_reentry(self) < 0)
        return NULL;
    double weight = PyFloat_AsDouble(args[4]);
    if (weight == -1.0 && PyErr_Occurred())
        return NULL;

    Py_ssize_t num_front = PyList_GET_SIZE(front);
    Py_ssize_t num_pairs = num_front + PyList_GET_SIZE(extended);
    if (grow_pairs(self, num_pairs) < 0)
        return NULL;
    for (Py_ssize_t i = 0; i < num_pairs; i++) {
        PyObject *group = i < num_front ? front : extended;
        Py_ssize_t node, left, right;
        if (read_index(group, i < num_front ? i : i - num_front,
                       self->num_nodes, "node id", &node) < 0
            || physical_of(v2p, self, self->qubit0[node], &left) < 0
            || physical_of(v2p, self, self->qubit1[node], &right) < 0)
            return NULL;
        self->pair_left[i] = left;
        self->pair_right[i] = right;
    }
    if (read_doubles(decay, self->num_qubits, "decay", self->decay) < 0)
        return NULL;

    Py_ssize_t num_ties = score_ties(self, num_front, num_pairs, self->decay,
                                     weight);
    if (num_ties < 0)
        return NULL;
    PyObject *result = PyList_New(num_ties);
    if (result == NULL)
        return NULL;
    for (Py_ssize_t t = 0; t < num_ties; t++) {
        Py_ssize_t edge_a, edge_b;
        edge_endpoints(self, self->ties[t], &edge_a, &edge_b);
        PyObject *pair = Py_BuildValue("(nn)", edge_a, edge_b);
        if (pair == NULL) {
            Py_DECREF(result);
            return NULL;
        }
        PyList_SET_ITEM(result, t, pair);
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
    if (refuse_reentry(self) < 0)
        return NULL;
    PyObject *roots = args[0];
    Py_ssize_t limit = PyLong_AsSsize_t(args[1]);
    if (limit == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t num_roots = PyList_GET_SIZE(roots);
    Py_ssize_t *ids = PyMem_Malloc((num_roots ? num_roots : 1)
                                   * sizeof(Py_ssize_t));
    if (ids == NULL)
        return PyErr_NoMemory();
    PyObject *result = NULL;
    for (Py_ssize_t i = 0; i < num_roots; i++)
        if (read_index(roots, i, self->num_nodes, "node id", &ids[i]) < 0)
            goto done;
    Py_ssize_t found = window_bfs(self, ids, num_roots, limit, self->window);
    if (found < 0)
        goto done;
    result = PyList_New(found);
    if (result == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < found; i++) {
        PyObject *id = PyLong_FromSsize_t(self->window[i]);
        if (id == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, i, id);
    }
done:
    PyMem_Free(ids);
    return result;
}

/* -- RouteKernel.route ---------------------------------------------------- */

/* State of one route() call. */
typedef struct {
    Py_buffer views[4];
    int num_views;
    const int32_t *gate_ids;
    const int32_t *indegree;
    const int64_t *qarg_ptr;  /* num_nodes + 1 */
    const int32_t *qargs;
    Py_ssize_t num_qargs;
    PyObject *gates;          /* tuple, borrowed */
    Py_ssize_t num_gates;
    PyObject *ops;            /* the emitted (gate, physical) list */
    Py_ssize_t num_virtual;
    Py_ssize_t *v2p, *p2v, *indeg, *front, *next, *ext;
    PyObject **physical;      /* per physical qubit: its int object */
    Py_ssize_t limit;
    double weight;
    /* The mirror rule (mirror != NULL). */
    PyObject *mirror;
    PyObject **mirror_gates;  /* borrowed from the rule's gate sequence */
    PyObject *accepted_mirror;  /* the rule's builder, borrowed */
    double *gate_costs, *mirror_costs;
    double *gate_prices, *mirror_prices;
    double swap_price;
    double decomposition_weight;
    long aggression;
    Py_ssize_t mirrors, candidates;
    /* The scored depth (mirror != NULL): per physical wire, and overall. */
    double *wire_depth;
    double depth;
} Run;

static int
bind_run(Run *run, PyObject *obj, Py_ssize_t itemsize, const char *name,
         const void **data, Py_ssize_t *length)
{
    if (bind_buffer(&run->views[run->num_views], obj, itemsize, name, data,
                    length) < 0)
        return -1;
    run->num_views++;
    return 0;
}

/* Append ``(gate, physical)`` to the op list; ``physical`` is stolen. */
static int
emit(Run *run, PyObject *gate, PyObject *physical)
{
    if (physical == NULL)
        return -1;
    PyObject *op = PyTuple_New(2);
    if (op == NULL) {
        Py_DECREF(physical);
        return -1;
    }
    Py_INCREF(gate);
    PyTuple_SET_ITEM(op, 0, gate);
    PyTuple_SET_ITEM(op, 1, physical);
    int status = PyList_Append(run->ops, op);
    Py_DECREF(op);
    return status;
}

static PyObject *
pair_tuple(Run *run, Py_ssize_t a, Py_ssize_t b)
{
    return PyTuple_Pack(2, run->physical[a], run->physical[b]);
}

static int
gate_slot(Run *run, Py_ssize_t node, Py_ssize_t *slot)
{
    *slot = run->gate_ids[node];
    return check_index("gate id", *slot, run->num_gates);
}

/* Physical qubits of a two-qubit node's pair. */
static int
node_pair(RouteKernel *self, Run *run, Py_ssize_t node, Py_ssize_t *left,
          Py_ssize_t *right)
{
    Py_ssize_t q0 = self->qubit0[node], q1 = self->qubit1[node];
    if (check_index("virtual qubit", q0, run->num_virtual) < 0
        || check_index("virtual qubit", q1, run->num_virtual) < 0)
        return -1;
    *left = run->v2p[q0];
    *right = run->v2p[q1];
    return 0;
}

/* A two-qubit op of raw price ``price`` on the physical pair (a, b):
 * ``_walk``'s ``(other if other > upstream else upstream) + price``. */
static void
score_two_qubit(Run *run, Py_ssize_t a, Py_ssize_t b, double price)
{
    double upstream = run->wire_depth[a], other = run->wire_depth[b];
    double weighted = (other > upstream ? other : upstream) + price;
    run->wire_depth[a] = run->wire_depth[b] = weighted;
    if (weighted > run->depth)
        run->depth = weighted;
}

static void
swap_physical(Run *run, Py_ssize_t a, Py_ssize_t b)
{
    Py_ssize_t va = run->p2v[a], vb = run->p2v[b];
    if (va >= 0)
        run->v2p[va] = b;
    if (vb >= 0)
        run->v2p[vb] = a;
    run->p2v[a] = vb;
    run->p2v[b] = va;
}

/* Twin of ``repro.core.aggression.accept_mirror`` (paper Algorithm 2):
 * 1 to accept, 0 to keep the gate, -1 with an error set. */
static int
accept_mirror(double cost_current, double cost_trial, long level)
{
    if (level == 0)
        return 0;
    if (level == 1)
        return cost_trial < cost_current - 1e-9;
    if (level == 2)
        return cost_trial <= cost_current + 1e-9;
    if (level == 3)
        return 1;
    PyErr_Format(PyExc_ValueError, "invalid aggression level %ld", level);
    return -1;
}

/* Routing pressure of the lookahead window after ``node`` under the
 * current layout and with the physical pair (a, b) swapped: the twin of
 * ``route._mirror_routing_costs``. */
static int
mirror_routing_costs(RouteKernel *self, Run *run, Py_ssize_t node,
                     Py_ssize_t a, Py_ssize_t b, double *current,
                     double *mirrored)
{
    Py_ssize_t count = window_bfs(self, &node, 1, run->limit, self->window);
    if (count < 0)
        return -1;
    if (count == 0) {
        *current = 0.0;
        *mirrored = 0.0;
        return 0;
    }
    const int64_t *dist = self->dist;
    Py_ssize_t stride = self->num_qubits;
    int64_t base = 0, swapped = 0;
    for (Py_ssize_t i = 0; i < count; i++) {
        Py_ssize_t left, right;
        if (node_pair(self, run, self->window[i], &left, &right) < 0)
            return -1;
        base += dist[left * stride + right];
        Py_ssize_t new_left = left == a ? b : left == b ? a : left;
        Py_ssize_t new_right = right == a ? b : right == b ? a : right;
        swapped += dist[new_left * stride + new_right];
    }
    *current = 0.0 + run->weight * (double)base / (double)count;
    *mirrored = 0.0 + run->weight * (double)swapped / (double)count;
    return 0;
}

/* An executable two-qubit gate on the physical pair (left, right): the
 * gate itself, or under a mirror rule the gate or its mirror. */
static int
commit_two_qubit(RouteKernel *self, Run *run, Py_ssize_t node,
                 Py_ssize_t left, Py_ssize_t right)
{
    Py_ssize_t slot;
    if (gate_slot(run, node, &slot) < 0)
        return -1;
    PyObject *gate = PyTuple_GET_ITEM(run->gates, slot);
    if (run->mirror == NULL)
        return emit(run, gate, pair_tuple(run, left, right));

    run->candidates++;
    double routing_current, routing_mirror;
    if (mirror_routing_costs(self, run, node, left, right, &routing_current,
                             &routing_mirror) < 0)
        return -1;
    double dw = run->decomposition_weight;
    double cost_current = dw * run->gate_costs[slot] + routing_current;
    double cost_trial = dw * run->mirror_costs[slot] + routing_mirror;
    int accept = accept_mirror(cost_current, cost_trial, run->aggression);
    if (accept < 0)
        return -1;
    if (!accept) {
        score_two_qubit(run, left, right, run->gate_prices[slot]);
        return emit(run, gate, pair_tuple(run, left, right));
    }
    PyObject *mirror_gate = run->mirror_gates[slot];
    if (mirror_gate == Py_None) {
        /* First acceptance of this slot: the rule builds the mirror gate
         * and stores it in the shared list, so later runs read it. */
        PyObject *index = PyLong_FromSsize_t(slot);
        if (index == NULL)
            return -1;
        mirror_gate = PyObject_CallOneArg(run->accepted_mirror, index);
        Py_DECREF(index);
        if (mirror_gate == NULL)
            return -1;
    }
    else
        Py_INCREF(mirror_gate);
    run->mirrors++;
    score_two_qubit(run, left, right, run->mirror_prices[slot]);
    int status = emit(run, mirror_gate, pair_tuple(run, left, right));
    Py_DECREF(mirror_gate);
    if (status < 0)
        return -1;
    swap_physical(run, left, right);
    return 0;
}

/* A directive or single-qubit gate, on the physical images of its qargs.
 * Under a mirror rule a directive on two or more wires joins them in the
 * scored depth (``_walk``'s ``max`` over the wires, first maximum kept). */
static int
emit_free(Run *run, Py_ssize_t node)
{
    Py_ssize_t slot;
    if (gate_slot(run, node, &slot) < 0)
        return -1;
    int64_t start = run->qarg_ptr[node], stop = run->qarg_ptr[node + 1];
    if (start < 0 || start > stop || stop > run->num_qargs) {
        PyErr_SetString(TranspilerError, "route kernel: malformed qarg index");
        return -1;
    }
    PyObject *physical = PyTuple_New((Py_ssize_t)(stop - start));
    if (physical == NULL)
        return -1;
    for (int64_t k = start; k < stop; k++) {
        Py_ssize_t virtual = run->qargs[k];
        if (check_index("virtual qubit", virtual, run->num_virtual) < 0) {
            Py_DECREF(physical);
            return -1;
        }
        PyObject *qubit = run->physical[run->v2p[virtual]];
        Py_INCREF(qubit);
        PyTuple_SET_ITEM(physical, (Py_ssize_t)(k - start), qubit);
    }
    if (run->mirror != NULL && stop - start > 1) {
        double joined = run->wire_depth[run->v2p[run->qargs[start]]];
        for (int64_t k = start + 1; k < stop; k++) {
            double value = run->wire_depth[run->v2p[run->qargs[k]]];
            if (value > joined)
                joined = value;
        }
        for (int64_t k = start; k < stop; k++)
            run->wire_depth[run->v2p[run->qargs[k]]] = joined;
        if (joined > run->depth)
            run->depth = joined;
    }
    return emit(run, PyTuple_GET_ITEM(run->gates, slot), physical);
}

/* One tie-break draw, ``rng.integers(num_ties)``; the only Python call. */
static int
draw_tie(PyObject *rng, Py_ssize_t num_ties, Py_ssize_t *choice)
{
    PyObject *bound = PyLong_FromSsize_t(num_ties);
    if (bound == NULL)
        return -1;
    PyObject *drawn = PyObject_CallMethodOneArg(rng, str_integers, bound);
    Py_DECREF(bound);
    if (drawn == NULL)
        return -1;
    *choice = PyNumber_AsSsize_t(drawn, PyExc_OverflowError);
    Py_DECREF(drawn);
    if (*choice == -1 && PyErr_Occurred())
        return -1;
    return check_index("tie draw", *choice, num_ties);
}

static int
read_ssize(PyObject *obj, const char *what, Py_ssize_t *out)
{
    *out = PyLong_AsSsize_t(obj);
    if (*out == -1 && PyErr_Occurred()) {
        PyErr_Format(PyExc_TypeError, "route: %s must be a machine-size int",
                     what);
        return -1;
    }
    return 0;
}

static void
reset_decay(double *decay, Py_ssize_t count)
{
    for (Py_ssize_t q = 0; q < count; q++)
        decay[q] = 1.0;
}

/* Bind the rule's per-slot arrays; the caller frees the four cost and
 * price arrays. */
static int
bind_mirror(Run *run, PyObject *mirror, PyObject **gates_fast)
{
    if (!PyTuple_Check(mirror) || PyTuple_GET_SIZE(mirror) != 10) {
        PyErr_SetString(TranspilerError,
                        "route kernel: mirror must be a 10-field MirrorRule");
        return -1;
    }
    run->accepted_mirror = PyTuple_GET_ITEM(mirror, 9);
    if (!PyCallable_Check(run->accepted_mirror)) {
        PyErr_SetString(TranspilerError,
                        "route kernel: the rule's accepted_mirror must be "
                        "callable");
        return -1;
    }
    *gates_fast = PySequence_Fast(PyTuple_GET_ITEM(mirror, 0),
                                  "route kernel: mirror gates must be a sequence");
    if (*gates_fast == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(*gates_fast) != run->num_gates) {
        PyErr_SetString(TranspilerError,
                        "route kernel: one mirror gate per gate slot expected");
        return -1;
    }
    run->mirror_gates = PySequence_Fast_ITEMS(*gates_fast);
    Py_ssize_t slots = run->num_gates ? run->num_gates : 1;
    run->gate_costs = PyMem_Malloc(slots * sizeof(double));
    run->mirror_costs = PyMem_Malloc(slots * sizeof(double));
    run->gate_prices = PyMem_Malloc(slots * sizeof(double));
    run->mirror_prices = PyMem_Malloc(slots * sizeof(double));
    if (run->gate_costs == NULL || run->mirror_costs == NULL
        || run->gate_prices == NULL || run->mirror_prices == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    if (read_doubles(PyTuple_GET_ITEM(mirror, 1), run->num_gates,
                     "gate costs", run->gate_costs) < 0
        || read_doubles(PyTuple_GET_ITEM(mirror, 2), run->num_gates,
                        "mirror costs", run->mirror_costs) < 0
        || read_doubles(PyTuple_GET_ITEM(mirror, 5), run->num_gates,
                        "gate prices", run->gate_prices) < 0
        || read_doubles(PyTuple_GET_ITEM(mirror, 6), run->num_gates,
                        "mirror prices", run->mirror_prices) < 0)
        return -1;
    run->swap_price = PyFloat_AsDouble(PyTuple_GET_ITEM(mirror, 7));
    if (run->swap_price == -1.0 && PyErr_Occurred())
        return -1;
    run->decomposition_weight = PyFloat_AsDouble(PyTuple_GET_ITEM(mirror, 3));
    if (run->decomposition_weight == -1.0 && PyErr_Occurred())
        return -1;
    run->aggression = PyLong_AsLong(PyTuple_GET_ITEM(mirror, 4));
    if (run->aggression == -1 && PyErr_Occurred())
        return -1;
    run->mirror = mirror;
    return 0;
}

/* The route loop proper; see ``route.route_kernel`` for the reference. */
static int
route_loop(RouteKernel *self, Run *run, PyObject *rng, PyObject *swap_gate,
           int kind_free, double decay_delta, Py_ssize_t reset_interval,
           Py_ssize_t stall_limit, Py_ssize_t *swaps_added)
{
    Py_ssize_t n = self->num_nodes, nq = self->num_qubits;
    const int64_t *dist = self->dist;
    double *decay = self->decay;
    Py_ssize_t *front = run->front, *next = run->next;
    Py_ssize_t num_front = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        if (!run->indeg[i])
            front[num_front++] = i;
    reset_decay(decay, nq);
    int decay_dirty = 0;
    Py_ssize_t decay_steps = 0, stall_counter = 0, num_ext = -1;

    while (num_front) {
        int executed_any = 0;
        Py_ssize_t num_next = 0;
        for (Py_ssize_t f = 0; f < num_front; f++) {
            Py_ssize_t node = front[f];
            int kind = self->kind[node];
            if (kind == self->kind_check2) {
                Py_ssize_t left, right;
                if (node_pair(self, run, node, &left, &right) < 0)
                    return -1;
                if (dist[left * nq + right] != 1) {  /* not adjacent */
                    next[num_next++] = node;
                    continue;
                }
                if (commit_two_qubit(self, run, node, left, right) < 0)
                    return -1;
            }
            else if (kind == kind_free) {
                if (emit_free(run, node) < 0)
                    return -1;
            }
            else {
                PyErr_SetString(TranspilerError,
                                "router requires gates with at most two qubits");
                return -1;
            }
            executed_any = 1;
            int64_t start = self->succ_ptr[node], stop = self->succ_ptr[node + 1];
            if (start < 0 || start > stop || stop > self->num_succ) {
                PyErr_SetString(TranspilerError,
                                "route kernel: malformed successor index");
                return -1;
            }
            for (int64_t k = start; k < stop; k++) {
                Py_ssize_t successor = self->succ_ids[k];
                if (check_index("successor id", successor, n) < 0)
                    return -1;
                /* A node turns ready once, so ``next`` holds each node at
                 * most once and never overflows. */
                if (!--run->indeg[successor])
                    next[num_next++] = successor;
            }
        }
        Py_ssize_t *swap = front;
        front = next;
        next = swap;
        num_front = num_next;
        if (executed_any) {
            if (decay_dirty) {
                reset_decay(decay, nq);
                decay_dirty = 0;
            }
            decay_steps = 0;
            stall_counter = 0;
            num_ext = -1;
            continue;
        }
        if (!num_front)
            break;

        /* Stalled: every front node is a blocked two-qubit gate.  The
         * lookahead window depends only on the front and the DAG, so it
         * is kept across consecutive stalls. */
        if (++stall_counter > stall_limit) {
            PyErr_SetString(TranspilerError, "router failed to make progress");
            return -1;
        }
        if (num_ext < 0) {
            num_ext = window_bfs(self, front, num_front, run->limit, run->ext);
            if (num_ext < 0)
                return -1;
        }
        if (grow_pairs(self, num_front + num_ext) < 0)
            return -1;
        for (Py_ssize_t i = 0; i < num_front + num_ext; i++) {
            Py_ssize_t node = i < num_front ? front[i] : run->ext[i - num_front];
            if (node_pair(self, run, node, &self->pair_left[i],
                          &self->pair_right[i]) < 0)
                return -1;
        }
        Py_ssize_t num_ties = score_ties(self, num_front, num_front + num_ext,
                                         decay, run->weight);
        if (num_ties < 0)
            return -1;
        Py_ssize_t choice = 0;
        if (num_ties > 1) {
            /* The draw may run Python code; ``busy`` refuses any call
             * into this kernel until route() returns. */
            if (draw_tie(rng, num_ties, &choice) < 0)
                return -1;
        }
        Py_ssize_t edge_a, edge_b;
        if (edge_endpoints(self, self->ties[choice], &edge_a, &edge_b) < 0
            || emit(run, swap_gate, pair_tuple(run, edge_a, edge_b)) < 0)
            return -1;
        if (run->mirror != NULL)
            score_two_qubit(run, edge_a, edge_b, run->swap_price);
        swap_physical(run, edge_a, edge_b);
        decay[edge_a] += decay_delta;
        decay[edge_b] += decay_delta;
        decay_dirty = 1;
        if (++decay_steps >= reset_interval) {
            reset_decay(decay, nq);
            decay_dirty = 0;
            decay_steps = 0;
        }
        ++*swaps_added;
    }
    return 0;
}

static PyObject *
RouteKernel_route(RouteKernel *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 16) {
        PyErr_SetString(PyExc_TypeError,
                        "route(v2p, p2v, rng, gates, gate_ids, indegree, "
                        "qarg_indptr, qargs, kind_free, swap_gate, "
                        "extended_set_size, extended_set_weight, decay_delta, "
                        "decay_reset_interval, stall_limit, mirror)");
        return NULL;
    }
    PyObject *v2p_list = args[0], *p2v_list = args[1], *rng = args[2];
    PyObject *gates = args[3], *swap_gate = args[9], *mirror = args[15];
    if (!PyList_Check(v2p_list) || !PyList_Check(p2v_list)
        || !PyTuple_Check(gates)) {
        PyErr_SetString(PyExc_TypeError,
                        "route: v2p and p2v must be lists, gates a tuple");
        return NULL;
    }
    if (refuse_reentry(self) < 0)
        return NULL;

    Run run;
    memset(&run, 0, sizeof(run));
    PyObject *mirror_fast = NULL, *result = NULL;
    Py_ssize_t n = self->num_nodes, nq = self->num_qubits;
    Py_ssize_t num_gate_ids, num_indegree, num_qarg_ptr;
    Py_ssize_t reset_interval, stall_limit, swaps_added = 0;
    long kind_free = PyLong_AsLong(args[8]);
    if (kind_free == -1 && PyErr_Occurred())
        return NULL;
    double decay_delta;
    run.gates = gates;
    run.num_gates = PyTuple_GET_SIZE(gates);
    run.num_virtual = PyList_GET_SIZE(v2p_list);
    self->busy = 1;

    if (bind_run(&run, args[4], 4, "gate_ids", (const void **)&run.gate_ids,
                 &num_gate_ids) < 0
        || bind_run(&run, args[5], 4, "indegree", (const void **)&run.indegree,
                    &num_indegree) < 0
        || bind_run(&run, args[6], 8, "qarg_indptr",
                    (const void **)&run.qarg_ptr, &num_qarg_ptr) < 0
        || bind_run(&run, args[7], 4, "qargs", (const void **)&run.qargs,
                    &run.num_qargs) < 0)
        goto done;
    if (num_gate_ids != n || num_indegree != n || num_qarg_ptr != n + 1
        || PyList_GET_SIZE(p2v_list) != nq) {
        PyErr_SetString(TranspilerError,
                        "route kernel: inconsistent DAG or layout sizes");
        goto done;
    }
    if (read_ssize(args[10], "extended_set_size", &run.limit) < 0
        || read_ssize(args[13], "decay_reset_interval", &reset_interval) < 0
        || read_ssize(args[14], "stall_limit", &stall_limit) < 0)
        goto done;
    run.weight = PyFloat_AsDouble(args[11]);
    if (run.weight == -1.0 && PyErr_Occurred())
        goto done;
    decay_delta = PyFloat_AsDouble(args[12]);
    if (decay_delta == -1.0 && PyErr_Occurred())
        goto done;
    if (mirror != Py_None && bind_mirror(&run, mirror, &mirror_fast) < 0)
        goto done;

    Py_ssize_t nodes = n ? n : 1;
    run.v2p = PyMem_Malloc((run.num_virtual ? run.num_virtual : 1)
                           * sizeof(Py_ssize_t));
    run.p2v = PyMem_Malloc((nq ? nq : 1) * sizeof(Py_ssize_t));
    run.physical = PyMem_Calloc(nq ? nq : 1, sizeof(PyObject *));
    run.indeg = PyMem_Malloc(nodes * sizeof(Py_ssize_t));
    run.front = PyMem_Malloc(nodes * sizeof(Py_ssize_t));
    run.next = PyMem_Malloc(nodes * sizeof(Py_ssize_t));
    run.ext = PyMem_Malloc(nodes * sizeof(Py_ssize_t));
    run.wire_depth = PyMem_Calloc(nq ? nq : 1, sizeof(double));
    if (!run.v2p || !run.p2v || !run.physical || !run.indeg || !run.front
        || !run.next || !run.ext || !run.wire_depth) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t q = 0; q < nq; q++) {
        run.p2v[q] = -1;
        if ((run.physical[q] = PyLong_FromSsize_t(q)) == NULL)
            goto done;
    }
    for (Py_ssize_t v = 0; v < run.num_virtual; v++) {
        if (read_index(v2p_list, v, nq, "physical qubit", &run.v2p[v]) < 0)
            goto done;
        run.p2v[run.v2p[v]] = v;
    }
    for (Py_ssize_t i = 0; i < n; i++)
        run.indeg[i] = run.indegree[i];
    if ((run.ops = PyList_New(0)) == NULL)
        goto done;

    if (route_loop(self, &run, rng, swap_gate, (int)kind_free, decay_delta,
                   reset_interval, stall_limit, &swaps_added) < 0)
        goto done;

    /* The final layout, written into the caller's lists. */
    for (Py_ssize_t v = 0; v < run.num_virtual; v++) {
        PyObject *qubit = run.physical[run.v2p[v]];
        Py_INCREF(qubit);
        if (PyList_SetItem(v2p_list, v, qubit) < 0)
            goto done;
    }
    for (Py_ssize_t q = 0; q < nq; q++) {
        PyObject *virtual = PyLong_FromSsize_t(run.p2v[q]);
        if (virtual == NULL || PyList_SetItem(p2v_list, q, virtual) < 0)
            goto done;
    }
    if (run.mirror != NULL)
        result = Py_BuildValue("(Onnnd)", run.ops, swaps_added, run.mirrors,
                               run.candidates, run.depth);
    else
        result = Py_BuildValue("(OnnnO)", run.ops, swaps_added, run.mirrors,
                               run.candidates, Py_None);

done:
    self->busy = 0;
    for (int i = 0; i < run.num_views; i++)
        PyBuffer_Release(&run.views[i]);
    if (run.physical != NULL)
        for (Py_ssize_t q = 0; q < nq; q++)
            Py_XDECREF(run.physical[q]);
    Py_XDECREF(run.ops);
    Py_XDECREF(mirror_fast);
    PyMem_Free(run.gate_costs);
    PyMem_Free(run.mirror_costs);
    PyMem_Free(run.gate_prices);
    PyMem_Free(run.mirror_prices);
    PyMem_Free(run.wire_depth);
    PyMem_Free(run.v2p);
    PyMem_Free(run.p2v);
    PyMem_Free(run.physical);
    PyMem_Free(run.indeg);
    PyMem_Free(run.front);
    PyMem_Free(run.next);
    PyMem_Free(run.ext);
    return result;
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
    PyMem_Free(self->decay);
    PyMem_Free(self->window);
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
    self->decay = PyMem_Malloc(qubits * sizeof(double));
    self->window = PyMem_Malloc(nodes * sizeof(Py_ssize_t));
    self->stamp = PyMem_Calloc(nodes, sizeof(uint32_t));
    if (!self->head || !self->edge_mark || !self->cand || !self->ties
        || !self->decay || !self->window || !self->stamp) {
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
    {"route", (PyCFunction)(void (*)(void))RouteKernel_route, METH_FASTCALL,
     "route(v2p, p2v, rng, gates, gate_ids, indegree, qarg_indptr, qargs, "
     "kind_free, swap_gate, extended_set_size, extended_set_weight, "
     "decay_delta, decay_reset_interval, stall_limit, mirror) -> "
     "(ops, swaps_added, mirrors_accepted, mirror_candidates, depth)"},
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
    .tp_doc = "Flat route-kernel arrays bound for the native route loop.",
    .tp_new = RouteKernel_new,
    .tp_dealloc = (destructor)RouteKernel_dealloc,
    .tp_methods = RouteKernel_methods,
};

static struct PyModuleDef routec_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_routec",
    .m_doc = "Native route loop, SWAP scorer and lookahead walk of the flat "
             "route kernel.",
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
    str_integers = PyUnicode_InternFromString("integers");
    if (str_integers == NULL)
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
