// The program behind the `pdg` golden in tests/cli_smoke.rs: nested
// loops, a loop left by an early `return`, and a loop that never exits
// (`spin`), whose blocks reach no `ret`. The `control edges` line comes
// from the post-dominator tree.
int g[16];

int find(int* a, int n, int key) {
  int i;
  for (i = 0; i < n; i = i + 1) {
    if (a[i] == key) { return i; }
  }
  return -1;
}

void swap_ends(int* v, int n) {
  int i;
  int j;
  for (i = 0, j = n - 1; i < j; i = i + 1, j = j - 1) {
    int t = v[i];
    v[i] = v[j];
    v[j] = t;
  }
}

void spin(int* p, int n) {
  int k = 0;
  for (;;) {
    if (k < n) { p[k] = k; }
    k = k + 1;
  }
}

int main() {
  int a[8];
  int i;
  int j;
  for (i = 0; i < 8; i = i + 1) {
    for (j = 0; j < i; j = j + 1) { a[j] = a[j] + g[i]; }
  }
  int x = input();
  swap_ends(a, 8);
  if (x > 100) { spin(a, x); }
  return find(a, 8, x) + g[x % 16];
}
