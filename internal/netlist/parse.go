package netlist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/cell"
)

// ParseVerilog reads back a structural module in the dialect produced by
// (*Netlist).Verilog — the format this repository ships failing netlists
// in — and reconstructs the netlist. Together with Verilog() it gives a
// lossless round trip for every cell kind, port, clock connection and
// DFF reset value, so failure models exported as circuit-level artifacts
// (§3.3.2) can be reloaded and simulated.
func ParseVerilog(src string) (*Netlist, error) {
	return ParseVerilogReader(strings.NewReader(src))
}

// maxLineBytes bounds a single source line. The dialect never produces
// lines anywhere near this long (the widest is the module header, one
// name per port); the cap keeps a hostile unstructured blob from being
// buffered wholesale.
const maxLineBytes = 1 << 20

// ParseVerilogReader is the streaming form of ParseVerilog: one pass
// over the input with a line scanner, no whole-file string splitting,
// and hand-rolled line matching (no regexp) — each line is dispatched on
// its keyword and matched by one left-to-right pass. Memory scales with
// the netlist, not with transient parse state: cells go straight into
// the Builder's arena, instance names into a few large blocks, and
// the flat `wire [N:0] n;` declaration pre-sizes the tables (see
// presize) so a million-cell import does not pay for incremental growth.
func ParseVerilogReader(r io.Reader) (*Netlist, error) {
	p := &vparser{b: NewBuilder(""), srcLen: -1}
	if l, ok := r.(interface{ Len() int }); ok {
		p.srcLen = l.Len()
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	ln := 0
	for sc.Scan() {
		ln++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || bytes.HasPrefix(line, litComment) {
			continue
		}
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("line %d: %w", ln, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("line %d: %w", ln+1, err)
	}
	if !p.done {
		return nil, fmt.Errorf("missing endmodule")
	}
	if p.name == "" {
		return nil, fmt.Errorf("missing module header")
	}
	return p.finish()
}

type vparser struct {
	b    *Builder
	name string
	done bool

	// srcLen is the reader's unread length when the import started, or
	// -1 if the reader does not report one.
	srcLen int

	// netsLo maps flat "n[i]" indices below its length to builder nets
	// (NoNet = not yet allocated); it grows geometrically up to the
	// declared wire-vector width (declNets) as indices are referenced,
	// so the common dense case is a single array whose cost is always
	// justified by actual references, never by the declaration alone.
	// netsHi catches sparse indices beyond the declaration.
	netsLo   []NetID
	declNets int
	netsHi   map[int]NetID

	// port bit nets by "name[i]" (or scalar "name").
	portBits map[string]NetID
	inputs   []parsedPort
	outputs  []parsedPort

	// output-side assigns: port bit -> flat net (resolved at finish).
	outAssigns map[string]int

	cells int

	// The instance names of the cells added so far, in cell order, each
	// ended by '\n' (which no source line contains): filled blocks in
	// nameBlocks, the rest in names. A block is never copied or grown;
	// finish slices every name out of the block strings.
	nameBlocks []string
	names      strings.Builder
}

type parsedPort struct {
	name  string
	width int
}

// maxPortWidth bounds declared port widths. The widest real port in this
// repository is 32 bits; the cap keeps a hostile/corrupt declaration like
// `input wire [999999999:0]` from allocating gigabytes before Build can
// reject the module.
const maxPortWidth = 4096

// maxEagerNets bounds the dense net table (and with it what a hostile
// wire declaration can make the parser allocate); indices beyond it
// still work through the sparse overflow map. eagerNetSeed is what the
// declaration may pre-allocate when the input's length is unknown.
// minCellLine is the shortest line that adds a cell, so an input of L
// bytes holds at most L/minCellLine cells.
const (
	maxEagerNets = 1 << 22
	eagerNetSeed = 1 << 16
	minCellLine  = len("assign n[0] = n[0];")
)

// maxNameBlock bounds the blocks instance names are stored in; blocks
// double up to it from a few KiB, so a small module holds small blocks.
const maxNameBlock = 1 << 20

// Literal fragments of the dialect, hoisted so the hot per-line matchers
// never rebuild them.
var (
	litComment   = []byte("//")
	litModule    = []byte("module")
	litWireVec   = []byte("wire [")
	litInputDecl = []byte("input wire ")
	litOutDecl   = []byte("output wire ")
	litDFFHead   = []byte("dff #(.INIT(1'b")
	litDFFName   = []byte(")) ")
	litDFFClk    = []byte(" (.clk(n[")
	litDFFD      = []byte("]), .d(n[")
	litDFFQ      = []byte("]), .q(n[")
	litAssign    = []byte("assign ")
	litNotPar2   = []byte("~((")
	litNotPar    = []byte("~(")
	litClkbuf    = []byte("clkbuf")
	litClkgate   = []byte("clkgate")
	litClkbufSp  = []byte("clkbuf ")
	litClkgateSp = []byte("clkgate ")
)

// gateOps is the ordered binary-operator table: an rhs is tried against
// '&', then '|', then '^' (never map order), so parse results and error
// messages are deterministic. shape counts them in the same order.
var gateOps = [...]struct {
	op       byte
	pos, neg cell.Kind
}{{'&', cell.AND2, cell.NAND2}, {'|', cell.OR2, cell.NOR2}, {'^', cell.XOR2, cell.XNOR2}}

func isWordB(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isSpaceB(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\f', '\r':
		return true
	}
	return false
}

// cutUint consumes a leading ASCII digit run. Values that overflow int
// clamp to MaxInt with over=true; callers that mirror the strict paths
// reject over, the lenient paths accept the clamp.
func cutUint(b []byte) (v int, rest []byte, ok, over bool) {
	i := 0
	for i < len(b) && b[i]-'0' <= 9 {
		if v > (math.MaxInt-9)/10 {
			over = true
		} else {
			v = v*10 + int(b[i]-'0')
		}
		i++
	}
	if i == 0 {
		return 0, b, false, false
	}
	if over {
		v = math.MaxInt
	}
	return v, b[i:], true, over
}

// trim is bytes.TrimSpace, answered without a call when neither end of
// b can be white space.
func trim(b []byte) []byte {
	if len(b) > 0 && b[0] > ' ' && b[0] < utf8.RuneSelf && b[len(b)-1] > ' ' && b[len(b)-1] < utf8.RuneSelf {
		return b
	}
	return bytes.TrimSpace(b)
}

// netRef matches `n[<digits>]` exactly.
func netRef(b []byte) (idx int, over, ok bool) {
	if len(b) < 2 || b[0] != 'n' || b[1] != '[' {
		return 0, false, false
	}
	v, rest, k2, ov := cutUint(b[2:])
	if !k2 || len(rest) != 1 || rest[0] != ']' {
		return 0, false, false
	}
	return v, ov, true
}

// portRefOK matches `<word>[<digits>]` exactly (the shape of an output
// port bit reference; the key is the raw string, so only shape matters).
func portRefOK(b []byte) bool {
	j := 0
	for j < len(b) && isWordB(b[j]) {
		j++
	}
	if j == 0 || j >= len(b) || b[j] != '[' {
		return false
	}
	_, rest, ok, _ := cutUint(b[j+1:])
	return ok && len(rest) == 1 && rest[0] == ']'
}

func (p *vparser) net(idx int) NetID {
	if idx >= 0 && idx < p.declNets {
		if idx >= len(p.netsLo) {
			// Grow the dense table geometrically toward the declared
			// width: amortized O(1) per reference, memory bounded by
			// 2x the highest index actually referenced.
			want := 2 * len(p.netsLo)
			if want <= idx {
				want = idx + 1
			}
			if want > p.declNets {
				want = p.declNets
			}
			grown := make([]NetID, want)
			copy(grown, p.netsLo)
			for i := len(p.netsLo); i < want; i++ {
				grown[i] = NoNet
			}
			p.netsLo = grown
		}
		if n := p.netsLo[idx]; n != NoNet {
			return n
		}
		n := p.b.Net()
		p.netsLo[idx] = n
		return n
	}
	if p.netsHi == nil {
		p.netsHi = make(map[int]NetID)
	}
	if n, ok := p.netsHi[idx]; ok {
		return n
	}
	n := p.b.Net()
	p.netsHi[idx] = n
	return n
}

// presize is the declaration-count prepass hook: Verilog() emits the
// flat `wire [N:0] n;` declaration before any cell line, so its width
// bounds the net count (and with it the cell count) of the whole module
// before a single cell is built. The reservation is also bounded by the
// bytes actually supplied: when the reader reported its length, no more
// cells are reserved than that many bytes of the shortest cell line
// could add, so the net table and the cell and pin arenas are each
// allocated once at their final size. Without a length only a
// small seed is reserved and everything grows geometrically. Either
// way, one short hostile declaration costs nothing by itself.
func (p *vparser) presize(width int) {
	if p.declNets != 0 || width <= 0 {
		return
	}
	width = min(width, maxEagerNets)
	p.declNets = width
	seed := min(width, eagerNetSeed)
	if p.srcLen >= 0 {
		seed = min(width, p.srcLen/minCellLine)
	}
	p.netsLo = make([]NetID, seed)
	for i := range p.netsLo {
		p.netsLo[i] = NoNet
	}
	p.b.Reserve(seed, 2*seed)
}

// line dispatches one trimmed, non-comment source line on its keyword.
// The keywords' first bytes differ, so a line that fails its keyword's
// matcher is no other construct either.
func (p *vparser) line(line []byte) error {
	switch line[0] {
	case 'a':
		if rest, ok := bytes.CutPrefix(line, litAssign); ok {
			if ok, err := p.assign(rest); ok {
				return err
			}
		}
	case 'd':
		if p.dff(line) {
			return nil
		}
	case 'e':
		if string(line) == "endmodule" {
			p.done = true
			return nil
		}
	case 'i', 'o':
		prefix, ports := litInputDecl, &p.inputs
		if line[0] == 'o' {
			prefix, ports = litOutDecl, &p.outputs
		}
		if nm, dig, matched := matchPortDecl(line, prefix); matched {
			width, err := portWidthB(dig, nm)
			if err != nil {
				return err
			}
			*ports = append(*ports, parsedPort{string(nm), width})
			return nil
		}
	case 'm':
		if nm, ok := matchModule(line); ok {
			p.name = string(nm)
			return nil
		}
	case 'w':
		if w, ok := matchWireDecl(line); ok {
			p.presize(w)
			return nil
		}
	}
	return fmt.Errorf("unrecognized construct %q", line)
}

// matchModule matches `module <name> (` as a line prefix.
func matchModule(line []byte) ([]byte, bool) {
	rest, ok := bytes.CutPrefix(line, litModule)
	if !ok {
		return nil, false
	}
	i := 0
	for i < len(rest) && isSpaceB(rest[i]) {
		i++
	}
	if i == 0 {
		return nil, false
	}
	j := i
	for j < len(rest) && isWordB(rest[j]) {
		j++
	}
	if j == i {
		return nil, false
	}
	k := j
	for k < len(rest) && isSpaceB(rest[k]) {
		k++
	}
	if k >= len(rest) || rest[k] != '(' {
		return nil, false
	}
	return rest[i:j], true
}

// matchWireDecl matches `wire [<digits>:0] n;` exactly and returns the
// declared width.
func matchWireDecl(line []byte) (int, bool) {
	rest, ok := bytes.CutPrefix(line, litWireVec)
	if !ok {
		return 0, false
	}
	hi, rest, ok, over := cutUint(rest)
	if !ok || string(rest) != ":0] n;" {
		return 0, false
	}
	if over || hi == math.MaxInt {
		return math.MaxInt, true
	}
	return hi + 1, true
}

// matchPortDecl matches `<prefix>[<digits>:0] <word>;` with the range
// optional; on a match it returns the port name and the raw width digits
// (nil for a scalar port). A line whose prefix matches but whose shape
// does not simply fails to match, like the regexp-based matcher did.
func matchPortDecl(line, prefix []byte) (name, dig []byte, matched bool) {
	rest, ok := bytes.CutPrefix(line, prefix)
	if !ok {
		return nil, nil, false
	}
	if len(rest) > 0 && rest[0] == '[' {
		r2 := rest[1:]
		_, r3, ok3, _ := cutUint(r2)
		if !ok3 {
			return nil, nil, false
		}
		r4, ok4 := bytes.CutPrefix(r3, []byte(":0] "))
		if !ok4 {
			return nil, nil, false
		}
		dig = r2[:len(r2)-len(r3)]
		rest = r4
	}
	j := 0
	for j < len(rest) && isWordB(rest[j]) {
		j++
	}
	if j == 0 || string(rest[j:]) != ";" {
		return nil, nil, false
	}
	return rest[:j], dig, true
}

func portWidthB(dig, portName []byte) (int, error) {
	if string(portName) == "n" {
		// "n" is the flat wire vector Verilog() emits; a port with that
		// name would alias it and break the round trip.
		return 0, fmt.Errorf("port name %q is reserved", portName)
	}
	if dig == nil {
		return 1, nil
	}
	hi, _, _, over := cutUint(dig)
	if over || hi < 0 || hi >= maxPortWidth {
		return 0, fmt.Errorf("port %s: width %s out of range [1,%d]", portName, dig, maxPortWidth)
	}
	return hi + 1, nil
}

// dff matches `dff #(.INIT(1'bX)) <name> (.clk(n[a]), .d(n[b]), .q(n[c]));`
// exactly, adding the flip-flop on success.
func (p *vparser) dff(line []byte) bool {
	rest, ok := bytes.CutPrefix(line, litDFFHead)
	if !ok {
		return false
	}
	if len(rest) == 0 || (rest[0] != '0' && rest[0] != '1') {
		return false
	}
	init := rest[0] == '1'
	rest, ok = bytes.CutPrefix(rest[1:], litDFFName)
	if !ok {
		return false
	}
	j := 0
	for j < len(rest) && isWordB(rest[j]) {
		j++
	}
	if j == 0 {
		return false
	}
	nameB := rest[:j]
	rest, ok = bytes.CutPrefix(rest[j:], litDFFClk)
	if !ok {
		return false
	}
	clk, rest, ok, _ := cutUint(rest)
	if !ok {
		return false
	}
	rest, ok = bytes.CutPrefix(rest, litDFFD)
	if !ok {
		return false
	}
	d, rest, ok, _ := cutUint(rest)
	if !ok {
		return false
	}
	rest, ok = bytes.CutPrefix(rest, litDFFQ)
	if !ok {
		return false
	}
	q, rest, ok, _ := cutUint(rest)
	if !ok || string(rest) != "]));" {
		return false
	}
	p.addName(nameB)
	p.b.addDFFRaw(p.net(d), p.net(clk), p.net(q), init)
	p.cells++
	return true
}

// shape counts the bytes that decide the meaning of an assign's rhs:
// '&', '|' and '^' (gateOps order), then '~', '?' (index shMux) and the
// quote of a 1'bX literal.
type shape [6]int

const shMux = 4

// rhsClass maps a byte to 1 + its shape index, ';' to semicolon, and
// every byte the statement scan steps over to 0.
const semicolon = 7

var rhsClass = [256]int{'&': 1, '|': 2, '^': 3, '~': 4, '?': 1 + shMux, '\'': 6, ';': semicolon}

// assign matches `assign <lhs> = <rhs>; [// <comment>]`, rest being what
// follows "assign ", and adds what it declares; ok is false when the
// line is no assign statement at all. One left-to-right pass finds the
// statement: the lhs ends at the first ` = ` after at least one byte,
// and the rhs at the first `;` after at least one byte whose tail is
// empty or a // comment (an earlier `;` belongs to the rhs). On the way
// the pass takes the rhs's shape, which says where its operands are.
func (p *vparser) assign(rest []byte) (ok bool, err error) {
	eq := 1
	for eq+3 <= len(rest) && (rest[eq] != ' ' || rest[eq+1] != '=' || rest[eq+2] != ' ') {
		eq++
	}
	if eq+3 > len(rest) {
		return false, nil
	}
	after := rest[eq+3:]
	var sh shape
	for s, ch := range after {
		k := rhsClass[ch]
		if k == 0 {
			continue
		}
		if k != semicolon {
			sh[k-1]++
			continue
		}
		if s == 0 {
			continue // the rhs must be non-empty
		}
		tail := after[s+1:]
		j := 0
		for j < len(tail) && isSpaceB(tail[j]) {
			j++
		}
		var comment []byte
		switch {
		case j == len(tail):
		case j+1 < len(tail) && tail[j] == '/' && tail[j+1] == '/':
			comment = trim(tail[j+2:])
		default:
			continue
		}
		return true, p.statement(trim(rest[:eq]), trim(after[:s]), comment, &sh)
	}
	return false, nil
}

// statement adds what one assign declares: a port tie or a cell.
func (p *vparser) statement(lhs, rhs, comment []byte, sh *shape) error {
	outIdx, _, isNet := netRef(lhs)
	if !isNet {
		// Output tie: name[i] = n[k].
		if portRefOK(lhs) {
			idx, _, rOK := netRef(rhs)
			if !rOK {
				return fmt.Errorf("output assign rhs %q", rhs)
			}
			if p.outAssigns == nil {
				p.outAssigns = make(map[string]int)
			}
			p.outAssigns[string(lhs)] = idx
			return nil
		}
		return fmt.Errorf("assign lhs %q", lhs)
	}

	if *sh == (shape{}) {
		if in, _, k := netRef(rhs); k {
			// n[a] = n[b]: a BUF or CLKBUF (comment disambiguates).
			kind := cell.BUF
			if bytes.HasPrefix(comment, litClkbuf) {
				kind = cell.CLKBUF
			}
			p.addComb(kind, comment, outIdx, in)
			return nil
		}
		// Input tie: n[k] = portname or portname[i] (or a scalar port,
		// e.g. the clock).
		if p.portBits == nil {
			p.portBits = make(map[string]NetID)
		}
		p.portBits[string(rhs)] = p.net(outIdx)
		return nil
	}

	switch {
	case string(rhs) == "1'b0" || string(rhs) == "1'b1":
		kind := cell.TIE0
		if rhs[3] == '1' {
			kind = cell.TIE1
		}
		p.cellName(comment)
		p.b.addCombRaw(kind, [cell.MaxArity]NetID{}, 0, p.net(outIdx))
	case sh[shMux] > 0:
		// s ? b : a
		v, ok := (&spaced{b: rhs}).match("n[#]?n[#]:n[#]")
		if !ok {
			return fmt.Errorf("mux %q", rhs)
		}
		p.addComb(cell.MUX2, comment, outIdx, v[2], v[1], v[0])
	case rhs[0] == '~':
		return p.negated(rhs, comment, outIdx, sh)
	default:
		for i, g := range gateOps {
			if a, b, ok := splitBin(rhs, g.op, sh[i]); ok {
				kind := g.pos
				if kind == cell.AND2 && bytes.HasPrefix(comment, litClkgate) {
					kind = cell.CLKGATE
				}
				p.addComb(kind, comment, outIdx, a, b)
				return nil
			}
		}
		return fmt.Errorf("gate %q", rhs)
	}
	return nil
}

// negated adds the cell of an rhs that starts with '~': an AOI21/OAI21,
// a NAND2/NOR2/XNOR2 or an INV, tried in that order.
func (p *vparser) negated(rhs, comment []byte, outIdx int, sh *shape) error {
	switch {
	case bytes.HasPrefix(rhs, litNotPar2) && sh[0] > 0 && sh[1] > 0:
		for _, alt := range [...]struct {
			pat  string
			kind cell.Kind
		}{{"~((n[#]&n[#])|n[#])", cell.AOI21}, {"~((n[#]|n[#])&n[#])", cell.OAI21}} {
			if v, ok := (&spaced{b: rhs}).match(alt.pat); ok {
				p.addComb(alt.kind, comment, outIdx, v[0], v[1], v[2])
				return nil
			}
		}
		return fmt.Errorf("aoi/oai %q", rhs)
	case bytes.HasPrefix(rhs, litNotPar):
		inner := bytes.TrimSuffix(rhs[len(litNotPar):], []byte{')'})
		for i, g := range gateOps {
			if a, b, ok := splitBin(inner, g.op, sh[i]); ok {
				p.addComb(g.neg, comment, outIdx, a, b)
				return nil
			}
		}
		return fmt.Errorf("negated gate %q", rhs)
	}
	a, ok := operand(rhs[1:])
	if !ok {
		return fmt.Errorf("operand %q", rhs[1:])
	}
	p.addComb(cell.INV, comment, outIdx, a)
	return nil
}

// spaced is a cursor that reads an expression as if every ' ' in it were
// deleted: the mux and AOI/OAI forms are matched that way.
type spaced struct {
	b []byte
	i int
}

func (c *spaced) skip() {
	for c.i < len(c.b) && c.b[c.i] == ' ' {
		c.i++
	}
}

// match reads the whole expression as pat, in which each '#' stands for
// a decimal number that fits an int, and returns the numbers in order.
func (c *spaced) match(pat string) (nums [3]int, ok bool) {
	k := 0
	for j := 0; j < len(pat); j++ {
		c.skip()
		if pat[j] != '#' {
			if c.i == len(c.b) || c.b[c.i] != pat[j] {
				return nums, false
			}
			c.i++
			continue
		}
		v, digits, over := 0, 0, false
		for ; c.i < len(c.b) && c.b[c.i]-'0' <= 9; c.skip() {
			if v > (math.MaxInt-9)/10 {
				over = true
			} else {
				v = v*10 + int(c.b[c.i]-'0')
			}
			c.i++
			digits++
		}
		if digits == 0 || over {
			return nums, false
		}
		nums[k] = v
		k++
	}
	c.skip()
	return nums, c.i == len(c.b)
}

// operand parses a (possibly space-padded) `n[i]` gate operand; strict
// about overflow, like the old strconv.Atoi-based path.
func operand(b []byte) (int, bool) {
	idx, over, ok := netRef(trim(b))
	return idx, ok && !over
}

// splitBin splits `lhs <op> rhs` when op occurs exactly once (count, as
// the statement's shape counted it) and both sides are net references.
func splitBin(b []byte, op byte, count int) (int, int, bool) {
	if count != 1 {
		return 0, 0, false
	}
	i := bytes.IndexByte(b, op)
	a, ok := operand(b[:i])
	if !ok {
		return 0, 0, false
	}
	c, ok := operand(b[i+1:])
	return a, c, ok
}

// addName records the instance name of the cell about to be added.
func (p *vparser) addName(name []byte) {
	if n := p.names.Len(); n+len(name)+1 > p.names.Cap() {
		if n > 0 {
			p.nameBlocks = append(p.nameBlocks, p.names.String())
		}
		size := max(min(2*p.names.Cap(), maxNameBlock), 4<<10, len(name)+1)
		p.names = strings.Builder{}
		p.names.Grow(size)
	}
	p.names.Write(name)
	p.names.WriteByte('\n')
}

// cellName records a combinational cell's instance name from its
// `// name` comment, or "cell$<n>" without one.
func (p *vparser) cellName(comment []byte) {
	// Strip clock-cell markers until none remain so that naming is
	// idempotent across export/parse round trips: Verilog() re-prefixes
	// the marker, and a single trim would leave a residual prefix that
	// shifts the name on every round.
	for len(comment) > 0 && comment[0] == 'c' {
		if c, ok := bytes.CutPrefix(comment, litClkbufSp); ok {
			comment = c
		} else if c, ok := bytes.CutPrefix(comment, litClkgateSp); ok {
			comment = c
		} else {
			break
		}
	}
	if len(comment) == 0 {
		var buf [32]byte
		comment = strconv.AppendInt(append(buf[:0], "cell$"...), int64(p.cells), 10)
	}
	p.addName(comment)
}

func (p *vparser) addComb(kind cell.Kind, comment []byte, out int, ins ...int) {
	var pins [cell.MaxArity]NetID
	for i, n := range ins {
		pins[i] = p.net(n)
	}
	p.cellName(comment)
	p.b.addCombRaw(kind, pins, len(ins), p.net(out))
	p.cells++
}

// finish names the cells, wires ports and validates.
func (p *vparser) finish() (*Netlist, error) {
	i := 0
	for _, names := range append(p.nameBlocks, p.names.String()) {
		for names != "" {
			end := strings.IndexByte(names, '\n')
			p.b.cells[i].Name = names[:end]
			names = names[end+1:]
			i++
		}
	}
	p.nameBlocks, p.names = nil, strings.Builder{}

	// The first scalar input is the clock by convention of Verilog().
	declared := func(name string, width int) Bus {
		bus := make(Bus, width)
		for i := range bus {
			key := fmt.Sprintf("%s[%d]", name, i)
			if width == 1 {
				if n, ok := p.portBits[name]; ok {
					bus[i] = n
					continue
				}
			}
			n, ok := p.portBits[key]
			if !ok {
				// Unreferenced input bit: allocate a dangling net.
				n = p.b.Net()
			}
			bus[i] = n
		}
		return bus
	}

	clockDone := false
	for _, in := range p.inputs {
		if !clockDone && in.width == 1 && (in.name == "clk" || p.clockIsh(in.name)) {
			// Clock: the net tied from it is the clock root.
			n, ok := p.portBits[in.name]
			if !ok {
				n = p.b.Net()
			}
			p.b.declareClock(in.name, n)
			clockDone = true
			continue
		}
		p.b.declareInput(in.name, declared(in.name, in.width))
	}
	for _, out := range p.outputs {
		bus := make(Bus, out.width)
		for i := range bus {
			key := fmt.Sprintf("%s[%d]", out.name, i)
			idx, ok := p.outAssigns[key]
			if !ok {
				return nil, fmt.Errorf("output bit %s never assigned", key)
			}
			bus[i] = p.net(idx)
		}
		p.b.OutputBus(out.name, bus)
	}
	nl, err := p.b.Build()
	if err != nil {
		return nil, err
	}
	nl.Name = p.name
	return nl, nil
}

// clockIsh heuristically treats a 1-bit input named like a clock as the
// clock root.
func (p *vparser) clockIsh(portName string) bool {
	return strings.Contains(portName, "clk") || strings.Contains(portName, "clock")
}
