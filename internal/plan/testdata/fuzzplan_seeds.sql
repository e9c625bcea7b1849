-- FuzzPlan's seed corpus, one statement each (FuzzSplit in
-- internal/sqlparse reads it too): the paper's and the workloads'
-- SELECTs, written against the fuzz catalog's two tables, plus one query
-- for each rewrite rule.

-- Gram matrix: tuple, vector and block layouts (paper Fig. 1).
SELECT x1.i, x2.i, SUM(x1.value * x2.value) FROM x AS x1, x AS x2 WHERE x1.id = x2.id GROUP BY x1.i, x2.i;
SELECT SUM(outer_product(x.vec, x.vec)) FROM x;
SELECT SUM(matrix_multiply(trans_matrix(x.m), x.m)) FROM x;
SELECT ind.mi AS mi, ROWMATRIX(label_vector(x.vec, x.id - ind.mi*3)) AS m
  FROM x, (SELECT id AS mi FROM y) AS ind WHERE x.id / 3 = ind.mi GROUP BY ind.mi;

-- Linear regression (paper Fig. 2).
SELECT x.i, SUM(x.value * y.y_i) FROM x, y WHERE x.id = y.i GROUP BY x.i;
SELECT matrix_vector_multiply(SUM(outer_product(x.vec, x.vec)), SUM(x.vec * y.y_i)) FROM x, y WHERE x.id = y.i;
SELECT ind.mi AS mi, VECTORIZE(label_scalar(y.y_i, y.i - ind.mi*3)) AS v
  FROM y, (SELECT id AS mi FROM x) AS ind WHERE y.i / 3 = ind.mi GROUP BY ind.mi;

-- Distance (paper Fig. 3): cross join, per-pair builtins, max of mins.
SELECT a.id AS id, MIN(inner_product(matrix_vector_multiply(outer_product(b.vec, b.vec), a.vec), a.vec)) AS dist
  FROM x AS a, y AS b WHERE a.id <> b.id GROUP BY a.id;
SELECT d.id, d.dist FROM (SELECT id, MIN(value) AS dist FROM x GROUP BY id) AS d,
  (SELECT MAX(y_i) AS top FROM y) AS mm WHERE d.dist = mm.top;
SELECT id1, MIN(row_mins(dm + identity_matrix(2) * 1e300)) AS mins
  FROM (SELECT x.id AS id1, matrix_multiply(x.m, trans_matrix(y.m)) AS dm FROM x, y) AS p GROUP BY id1;
SELECT x.id * 2 + arg_max(x.vec), max_vector(min_pairwise(x.vec, y.vec)) FROM x, y WHERE x.id = y.id;

-- Served statements: grouped, point and wide reads.
SELECT i, COUNT(*) AS n, SUM(value) AS s FROM x GROUP BY i ORDER BY i;
SELECT SUM(outer_product(vec, vec)) FROM x WHERE i < 8;
SELECT id, vec FROM x WHERE i = 3 ORDER BY id LIMIT 10;

-- Subqueries, HAVING, ORDER BY keys, three-way joins, no FROM.
SELECT id FROM x WHERE value = (SELECT MAX(y_i) FROM y WHERE y_i < (SELECT AVG(value) FROM x));
SELECT i, COUNT(*) FROM x GROUP BY i HAVING SUM(value) > 1 ORDER BY 2 DESC, i;
SELECT x.id, y.id FROM x, y, x AS z WHERE x.id = z.i AND y.i = z.id AND x.value + y.y_i > z.value;
SELECT 1 + 2 * 3, NOT TRUE, -4.5, 'a', NULL;

-- One query per rewrite rule.
SELECT trans_matrix(trans_matrix(m)) FROM x;
SELECT matrix_multiply(col_matrix(vec), row_matrix(vec)) FROM x;
SELECT matrix_multiply(matrix_multiply(x.m, y.m), matrix_multiply(x.m, y.m)) FROM x, y;
SELECT trace(SUM(x.m)), diag(SUM(y.m)) FROM x, y WHERE x.id = y.id;
SELECT a, b FROM (SELECT id AS a, value * 2 AS b FROM x) AS d WHERE a > 3;
SELECT inner_product(matrix_vector_multiply(outer_product(vec, vec), vec), vec),
  sum_vector(matrix_vector_multiply(outer_product(vec, vec), vec)) FROM x;
