// JSON wire format for loops. The compile-and-simulate service accepts
// kernels over HTTP in this encoding, and its on-disk artifact store keeps
// loops in it. MarshalLoop is deterministic (fixed field order, no maps),
// so structurally identical loops produce byte-identical encodings. Content
// addresses do not hash this text: Digest (digest.go) hashes a binary form
// of the same fields and matches exactly when these encodings do.
//
// The schema mirrors the IR one-to-one. Expressions are tagged unions with
// exactly one populated field:
//
//	{"f64": 1.5}                         ConstF
//	{"i64": 3}                           ConstI
//	{"temp": "x", "kind": "f64"}         Temp
//	{"load": {"array": "a", "kind": "f64", "index": <expr>}}
//	{"bin": {"op": "add", "l": <expr>, "r": <expr>}}
//	{"un": {"op": "sqrt", "x": <expr>}}
//
// Statements carry their pseudo source line plus either an assignment (to a
// temp or an array element) or a structured conditional. UnmarshalLoop
// kind-checks every node as it rebuilds the tree (the Go constructors panic
// on misuse because kernels are authored in-process; wire input is
// untrusted, so the decoder returns errors instead) and finishes with
// Validate, so a decoded loop is as trustworthy as a built one.
package ir

import (
	"encoding/json"
	"fmt"
	"math"
)

// jsonF64 carries float64 values across the wire. Finite values encode as
// plain JSON numbers (byte-identical to encoding/json's default); NaN and
// the infinities — which bare JSON cannot represent — encode as the strings
// "nan", "inf" and "-inf", matching the source-language literals. All NaN
// payloads collapse to the quiet NaN, so loops differing only in NaN bits
// encode identically (and Digest gives them one address).
type jsonF64 float64

func (v jsonF64) MarshalJSON() ([]byte, error) {
	f := float64(v)
	switch {
	case math.IsNaN(f):
		return []byte(`"nan"`), nil
	case math.IsInf(f, 1):
		return []byte(`"inf"`), nil
	case math.IsInf(f, -1):
		return []byte(`"-inf"`), nil
	}
	return json.Marshal(f)
}

func (v *jsonF64) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		switch s {
		case "nan":
			*v = jsonF64(math.NaN())
		case "inf":
			*v = jsonF64(math.Inf(1))
		case "-inf":
			*v = jsonF64(math.Inf(-1))
		default:
			return fmt.Errorf("invalid f64 value %q (want a number, \"nan\", \"inf\" or \"-inf\")", s)
		}
		return nil
	}
	var f float64
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	*v = jsonF64(f)
	return nil
}

func toJSONF64s(fs []float64) []jsonF64 {
	if fs == nil {
		return nil
	}
	out := make([]jsonF64, len(fs))
	for i, f := range fs {
		out[i] = jsonF64(f)
	}
	return out
}

func fromJSONF64s(fs []jsonF64) []float64 {
	if fs == nil {
		return nil
	}
	out := make([]float64, len(fs))
	for i, f := range fs {
		out[i] = float64(f)
	}
	return out
}

type jsonLoop struct {
	Name    string       `json:"name"`
	Index   string       `json:"index"`
	Start   int64        `json:"start"`
	End     int64        `json:"end"`
	Step    int64        `json:"step"`
	Arrays  []jsonArray  `json:"arrays,omitempty"`
	Scalars []jsonScalar `json:"scalars,omitempty"`
	Body    []jsonStmt   `json:"body"`
	LiveOut []string     `json:"liveout,omitempty"`
}

type jsonArray struct {
	Name string    `json:"name"`
	Kind string    `json:"kind"`
	F64  []jsonF64 `json:"f64,omitempty"`
	I64  []int64   `json:"i64,omitempty"`
}

type jsonScalar struct {
	Name string   `json:"name"`
	Kind string   `json:"kind"`
	F64  *jsonF64 `json:"f64,omitempty"`
	I64  *int64   `json:"i64,omitempty"`
}

type jsonStmt struct {
	Line   int         `json:"line"`
	Assign *jsonAssign `json:"assign,omitempty"`
	If     *jsonIf     `json:"if,omitempty"`
}

// jsonAssign writes Expr to a temp (Temp set) or array element (Array and
// Index set); exactly one destination form must be present.
type jsonAssign struct {
	Temp  string    `json:"temp,omitempty"`
	Array string    `json:"array,omitempty"`
	Kind  string    `json:"kind"`
	Index *jsonExpr `json:"index,omitempty"`
	Expr  jsonExpr  `json:"expr"`
}

type jsonIf struct {
	Cond jsonExpr   `json:"cond"`
	Then []jsonStmt `json:"then,omitempty"`
	Else []jsonStmt `json:"else,omitempty"`
}

type jsonExpr struct {
	F64  *jsonF64  `json:"f64,omitempty"`
	I64  *int64    `json:"i64,omitempty"`
	Temp string    `json:"temp,omitempty"`
	Kind string    `json:"kind,omitempty"`
	Load *jsonLoad `json:"load,omitempty"`
	Bin  *jsonBin  `json:"bin,omitempty"`
	Un   *jsonUn   `json:"un,omitempty"`
}

type jsonLoad struct {
	Array string   `json:"array"`
	Kind  string   `json:"kind"`
	Index jsonExpr `json:"index"`
}

type jsonBin struct {
	Op string   `json:"op"`
	L  jsonExpr `json:"l"`
	R  jsonExpr `json:"r"`
}

type jsonUn struct {
	Op string   `json:"op"`
	X  jsonExpr `json:"x"`
}

// MarshalLoop encodes the loop as deterministic JSON: the same loop always
// yields the same bytes.
func MarshalLoop(l *Loop) ([]byte, error) {
	jl := jsonLoop{
		Name: l.Name, Index: l.Index,
		Start: l.Start, End: l.End, Step: l.Step,
		LiveOut: l.LiveOut,
	}
	for _, a := range l.Arrays {
		ja := jsonArray{Name: a.Name, Kind: a.K.String()}
		if a.K == F64 {
			ja.F64 = toJSONF64s(a.InitF)
		} else {
			ja.I64 = a.InitI
		}
		jl.Arrays = append(jl.Arrays, ja)
	}
	for _, s := range l.Scalars {
		js := jsonScalar{Name: s.Name, Kind: s.K.String()}
		if s.K == F64 {
			f := jsonF64(s.F)
			js.F64 = &f
		} else {
			i := s.I
			js.I64 = &i
		}
		jl.Scalars = append(jl.Scalars, js)
	}
	body, err := encodeStmts(l.Body)
	if err != nil {
		return nil, err
	}
	jl.Body = body
	return json.Marshal(jl)
}

func encodeStmts(stmts []Stmt) ([]jsonStmt, error) {
	var out []jsonStmt
	for _, s := range stmts {
		switch x := s.(type) {
		case *Assign:
			ja := &jsonAssign{}
			switch d := x.Dest.(type) {
			case TempDest:
				ja.Temp, ja.Kind = d.Name, d.K.String()
			case *ElemDest:
				idx, err := encodeExpr(d.Index)
				if err != nil {
					return nil, err
				}
				ja.Array, ja.Kind, ja.Index = d.Array, d.K.String(), &idx
			default:
				return nil, fmt.Errorf("ir: unknown destination type %T", x.Dest)
			}
			e, err := encodeExpr(x.X)
			if err != nil {
				return nil, err
			}
			ja.Expr = e
			out = append(out, jsonStmt{Line: x.Src, Assign: ja})
		case *If:
			cond, err := encodeExpr(x.Cond)
			if err != nil {
				return nil, err
			}
			then, err := encodeStmts(x.Then)
			if err != nil {
				return nil, err
			}
			els, err := encodeStmts(x.Else)
			if err != nil {
				return nil, err
			}
			out = append(out, jsonStmt{Line: x.Src, If: &jsonIf{Cond: cond, Then: then, Else: els}})
		default:
			return nil, fmt.Errorf("ir: unknown statement type %T", s)
		}
	}
	return out, nil
}

func encodeExpr(e Expr) (jsonExpr, error) {
	switch x := e.(type) {
	case ConstF:
		v := jsonF64(x.V)
		return jsonExpr{F64: &v}, nil
	case ConstI:
		v := x.V
		return jsonExpr{I64: &v}, nil
	case Temp:
		return jsonExpr{Temp: x.Name, Kind: x.K.String()}, nil
	case *Load:
		idx, err := encodeExpr(x.Index)
		if err != nil {
			return jsonExpr{}, err
		}
		return jsonExpr{Load: &jsonLoad{Array: x.Array, Kind: x.K.String(), Index: idx}}, nil
	case *Bin:
		l, err := encodeExpr(x.L)
		if err != nil {
			return jsonExpr{}, err
		}
		r, err := encodeExpr(x.R)
		if err != nil {
			return jsonExpr{}, err
		}
		return jsonExpr{Bin: &jsonBin{Op: x.Op.String(), L: l, R: r}}, nil
	case *Un:
		v, err := encodeExpr(x.X)
		if err != nil {
			return jsonExpr{}, err
		}
		return jsonExpr{Un: &jsonUn{Op: x.Op.String(), X: v}}, nil
	}
	return jsonExpr{}, fmt.Errorf("ir: unknown expression type %T", e)
}

// UnmarshalLoop decodes and validates a loop from its JSON encoding. Every
// node is kind-checked during decoding, and the finished loop passes
// Validate, so the result is safe to hand to the compiler pipeline.
func UnmarshalLoop(data []byte) (*Loop, error) {
	var jl jsonLoop
	if err := json.Unmarshal(data, &jl); err != nil {
		return nil, fmt.Errorf("ir: decoding loop: %w", err)
	}
	if jl.Name == "" {
		return nil, fmt.Errorf("ir: loop has no name")
	}
	if jl.Index == "" {
		return nil, fmt.Errorf("ir: loop %q has no index variable", jl.Name)
	}
	l := &Loop{
		Name: jl.Name, Index: jl.Index,
		Start: jl.Start, End: jl.End, Step: jl.Step,
		LiveOut: jl.LiveOut,
	}
	for _, ja := range jl.Arrays {
		k, err := decodeKind(ja.Kind)
		if err != nil {
			return nil, fmt.Errorf("ir: array %q: %w", ja.Name, err)
		}
		a := &ArrayDecl{Name: ja.Name, K: k}
		if k == F64 {
			if ja.F64 == nil {
				return nil, fmt.Errorf("ir: f64 array %q has no f64 data", ja.Name)
			}
			a.InitF = fromJSONF64s(ja.F64)
		} else {
			if ja.I64 == nil {
				return nil, fmt.Errorf("ir: i64 array %q has no i64 data", ja.Name)
			}
			a.InitI = ja.I64
		}
		l.Arrays = append(l.Arrays, a)
	}
	for _, js := range jl.Scalars {
		k, err := decodeKind(js.Kind)
		if err != nil {
			return nil, fmt.Errorf("ir: scalar %q: %w", js.Name, err)
		}
		s := ScalarDecl{Name: js.Name, K: k}
		if k == F64 {
			if js.F64 == nil {
				return nil, fmt.Errorf("ir: f64 scalar %q has no f64 value", js.Name)
			}
			s.F = float64(*js.F64)
		} else {
			if js.I64 == nil {
				return nil, fmt.Errorf("ir: i64 scalar %q has no i64 value", js.Name)
			}
			s.I = *js.I64
		}
		l.Scalars = append(l.Scalars, s)
	}
	body, err := decodeStmts(jl.Body)
	if err != nil {
		return nil, err
	}
	l.Body = body
	if err := Validate(l); err != nil {
		return nil, err
	}
	return l, nil
}

func decodeKind(s string) (Kind, error) {
	switch s {
	case "f64":
		return F64, nil
	case "i64":
		return I64, nil
	}
	return F64, fmt.Errorf("unknown kind %q (want \"f64\" or \"i64\")", s)
}

func decodeStmts(stmts []jsonStmt) ([]Stmt, error) {
	var out []Stmt
	for i, js := range stmts {
		switch {
		case js.Assign != nil && js.If == nil:
			ja := js.Assign
			x, err := decodeExpr(ja.Expr)
			if err != nil {
				return nil, fmt.Errorf("ir: line %d: %w", js.Line, err)
			}
			k, err := decodeKind(ja.Kind)
			if err != nil {
				return nil, fmt.Errorf("ir: line %d: %w", js.Line, err)
			}
			if x.Kind() != k {
				return nil, fmt.Errorf("ir: line %d: assignment kind %s but expression kind %s", js.Line, k, x.Kind())
			}
			var dest Dest
			switch {
			case ja.Temp != "" && ja.Array == "":
				dest = TempDest{Name: ja.Temp, K: k}
			case ja.Array != "" && ja.Temp == "":
				if ja.Index == nil {
					return nil, fmt.Errorf("ir: line %d: store to %q has no index", js.Line, ja.Array)
				}
				idx, err := decodeExpr(*ja.Index)
				if err != nil {
					return nil, fmt.Errorf("ir: line %d: %w", js.Line, err)
				}
				if idx.Kind() != I64 {
					return nil, fmt.Errorf("ir: line %d: store index has kind %s, want i64", js.Line, idx.Kind())
				}
				dest = &ElemDest{Array: ja.Array, K: k, Index: idx}
			default:
				return nil, fmt.Errorf("ir: line %d: assignment needs exactly one of \"temp\" or \"array\"", js.Line)
			}
			out = append(out, &Assign{Src: js.Line, Dest: dest, X: x})
		case js.If != nil && js.Assign == nil:
			cond, err := decodeExpr(js.If.Cond)
			if err != nil {
				return nil, fmt.Errorf("ir: line %d: %w", js.Line, err)
			}
			if cond.Kind() != I64 {
				return nil, fmt.Errorf("ir: line %d: if condition has kind %s, want i64", js.Line, cond.Kind())
			}
			then, err := decodeStmts(js.If.Then)
			if err != nil {
				return nil, err
			}
			els, err := decodeStmts(js.If.Else)
			if err != nil {
				return nil, err
			}
			out = append(out, &If{Src: js.Line, Cond: cond, Then: then, Else: els})
		default:
			return nil, fmt.Errorf("ir: statement %d needs exactly one of \"assign\" or \"if\"", i)
		}
	}
	return out, nil
}

func decodeExpr(je jsonExpr) (Expr, error) {
	n := 0
	if je.F64 != nil {
		n++
	}
	if je.I64 != nil {
		n++
	}
	if je.Temp != "" {
		n++
	}
	if je.Load != nil {
		n++
	}
	if je.Bin != nil {
		n++
	}
	if je.Un != nil {
		n++
	}
	if n != 1 {
		return nil, fmt.Errorf("expression needs exactly one of f64/i64/temp/load/bin/un, has %d", n)
	}
	switch {
	case je.F64 != nil:
		return ConstF{float64(*je.F64)}, nil
	case je.I64 != nil:
		return ConstI{*je.I64}, nil
	case je.Temp != "":
		k, err := decodeKind(je.Kind)
		if err != nil {
			return nil, fmt.Errorf("temp %q: %w", je.Temp, err)
		}
		return Temp{Name: je.Temp, K: k}, nil
	case je.Load != nil:
		k, err := decodeKind(je.Load.Kind)
		if err != nil {
			return nil, fmt.Errorf("load %q: %w", je.Load.Array, err)
		}
		idx, err := decodeExpr(je.Load.Index)
		if err != nil {
			return nil, err
		}
		if idx.Kind() != I64 {
			return nil, fmt.Errorf("load %q index has kind %s, want i64", je.Load.Array, idx.Kind())
		}
		return &Load{Array: je.Load.Array, K: k, Index: idx}, nil
	case je.Bin != nil:
		op, err := decodeBinOp(je.Bin.Op)
		if err != nil {
			return nil, err
		}
		left, err := decodeExpr(je.Bin.L)
		if err != nil {
			return nil, err
		}
		right, err := decodeExpr(je.Bin.R)
		if err != nil {
			return nil, err
		}
		if left.Kind() != right.Kind() {
			return nil, fmt.Errorf("%s operand kinds differ: %s vs %s", op, left.Kind(), right.Kind())
		}
		if op.IntOnly() && left.Kind() != I64 {
			return nil, fmt.Errorf("%s requires i64 operands, got %s", op, left.Kind())
		}
		return &Bin{Op: op, L: left, R: right}, nil
	default:
		op, err := decodeUnOp(je.Un.Op)
		if err != nil {
			return nil, err
		}
		x, err := decodeExpr(je.Un.X)
		if err != nil {
			return nil, err
		}
		switch op {
		case Not, CvtIF:
			if x.Kind() != I64 {
				return nil, fmt.Errorf("%s requires an i64 operand, got %s", op, x.Kind())
			}
		case Sqrt, Exp, Log, Floor, CvtFI:
			if x.Kind() != F64 {
				return nil, fmt.Errorf("%s requires an f64 operand, got %s", op, x.Kind())
			}
		}
		return &Un{Op: op, X: x}, nil
	}
}

func decodeBinOp(name string) (BinOp, error) {
	for op, n := range binNames {
		if n == name {
			return BinOp(op), nil
		}
	}
	return 0, fmt.Errorf("unknown binary operator %q", name)
}

func decodeUnOp(name string) (UnOp, error) {
	for op, n := range unNames {
		if n == name {
			return UnOp(op), nil
		}
	}
	return 0, fmt.Errorf("unknown unary operator %q", name)
}
