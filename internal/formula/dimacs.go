package formula

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseDIMACS reads a CNF in DIMACS format: a header "p cnf <vars>
// <clauses>", followed by whitespace-separated literal lists terminated by
// 0. Comment lines start with 'c'.
func ParseDIMACS(r io.Reader) (*CNF, error) {
	cnf, kind, err := parseClausal(r)
	if err != nil {
		return nil, err
	}
	if kind != "cnf" {
		return nil, fmt.Errorf("formula: expected 'p cnf' header, got 'p %s'", kind)
	}
	c := NewCNF(cnf.n)
	for _, lits := range cnf.groups {
		c.AddClause(Clause(lits))
	}
	return c, nil
}

// ParseDNF reads a DNF in the DIMACS-like convention used by DNF counters:
// header "p dnf <vars> <terms>", each line a 0-terminated list of literals
// forming one term (conjunction).
func ParseDNF(r io.Reader) (*DNF, error) {
	parsed, kind, err := parseClausal(r)
	if err != nil {
		return nil, err
	}
	if kind != "dnf" {
		return nil, fmt.Errorf("formula: expected 'p dnf' header, got 'p %s'", kind)
	}
	d := NewDNF(parsed.n)
	for _, lits := range parsed.groups {
		d.AddTerm(Term(lits))
	}
	return d, nil
}

type clausal struct {
	n      int
	groups [][]Lit
}

func parseClausal(r io.Reader) (clausal, string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var out clausal
	kind := ""
	declared := -1
	var cur []Lit
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			if kind != "" {
				return out, "", fmt.Errorf("formula: duplicate header line")
			}
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return out, "", fmt.Errorf("formula: malformed header %q", line)
			}
			kind = fields[1]
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				return out, "", fmt.Errorf("formula: bad variable count %q", fields[2])
			}
			m, err := strconv.Atoi(fields[3])
			if err != nil || m < 0 {
				return out, "", fmt.Errorf("formula: bad group count %q", fields[3])
			}
			out.n = n
			declared = m
			continue
		}
		if kind == "" {
			return out, "", fmt.Errorf("formula: literals before header")
		}
		for _, tok := range strings.Fields(line) {
			v, err := strconv.Atoi(tok)
			if err != nil {
				return out, "", fmt.Errorf("formula: bad literal %q", tok)
			}
			if v == 0 {
				out.groups = append(out.groups, cur)
				cur = nil
				continue
			}
			neg := v < 0
			if neg {
				v = -v
			}
			if v > out.n {
				return out, "", fmt.Errorf("formula: literal %d exceeds declared %d variables", v, out.n)
			}
			cur = append(cur, Lit{Var: v - 1, Neg: neg})
		}
	}
	if err := sc.Err(); err != nil {
		return out, "", err
	}
	if kind == "" {
		return out, "", fmt.Errorf("formula: missing header")
	}
	if len(cur) > 0 {
		out.groups = append(out.groups, cur)
	}
	if declared >= 0 && len(out.groups) != declared {
		return out, "", fmt.Errorf("formula: header declares %d groups, found %d", declared, len(out.groups))
	}
	return out, kind, nil
}
