// The program behind the `compile --essa` golden in tests/cli_smoke.rs.
// It prints a global, `int**`, calls with and without a result, φs,
// alloca/malloc/gep/load/store, every binary operator, br/jump/ret (with
// and without a value), an opaque input, and σ-copies on both edges plus
// subtraction splits. MiniC has no negative literal: `-3` lowers to
// `sub 0, 3`.
int g[4];

int* step(int* p, int k) {
  if (k > 0) { return p + k; }
  return p + 1;
}

void fill(int* a, int n) {
  int i;
  for (i = 0; i < n; i = i + 1) { a[i] = i * 2 - 1; }
}

int main() {
  int a[8];
  int** pp = malloc(2);
  int s = -3;
  fill(a, 8);
  pp[0] = step(a, 2);
  int* q = pp[0];
  g[1] = *q / 2 % 5;
  int x = input();
  return s + g[1] + (x >= 4 ? a[x - 4] : 0);
}
