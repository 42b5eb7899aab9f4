use crate::QueryError;

/// Index of a variable within a [`Query`]'s variable table.
pub type VarId = usize;

/// One body atom `Name(v0, v1, ...)` of a conjunctive query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    relation: String,
    vars: Vec<VarId>,
}

impl Atom {
    /// Name of the relation this atom scans.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// Variables of the atom, in the relation's column order.
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// Arity of the atom.
    pub fn arity(&self) -> usize {
        self.vars.len()
    }
}

/// A full conjunctive (natural-join) query: `head(vars) = atom, atom, ...`.
///
/// All body variables must appear in the head (the evaluation queries of the
/// paper are full joins without projection), and no atom may repeat a
/// variable.
///
/// # Example
///
/// ```
/// use triejax_query::Query;
///
/// let q = Query::builder("path3")
///     .head(["x", "y", "z"])
///     .atom("R", ["x", "y"])
///     .atom("S", ["y", "z"])
///     .build()?;
/// assert_eq!(q.num_vars(), 3);
/// assert_eq!(q.atoms().len(), 2);
/// # Ok::<(), triejax_query::QueryError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    name: String,
    var_names: Vec<String>,
    head: Vec<VarId>,
    atoms: Vec<Atom>,
}

impl Query {
    /// Starts building a query with the given head-predicate name.
    pub fn builder(name: impl Into<String>) -> QueryBuilder {
        QueryBuilder {
            name: name.into(),
            head: Vec::new(),
            atoms: Vec::new(),
        }
    }

    /// Query (head predicate) name, e.g. `"path3"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of distinct variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Name of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v]
    }

    /// Head variables in declaration order (the default evaluation order).
    pub fn head(&self) -> &[VarId] {
        &self.head
    }

    /// `true` when the head projects away at least one body variable
    /// (only constructible through [`QueryBuilder::build_projected`]).
    pub fn is_projection(&self) -> bool {
        self.head.len() < self.var_names.len()
    }

    /// Body atoms in declaration order.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// The atoms (by index) that mention variable `v`.
    pub fn atoms_with(&self, v: VarId) -> impl Iterator<Item = usize> + '_ {
        self.atoms
            .iter()
            .enumerate()
            .filter(move |(_, a)| a.vars.contains(&v))
            .map(|(i, _)| i)
    }

    /// Renders the query in the paper's compact datalog format.
    pub fn to_datalog(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(s, "{}(", self.name);
        s.push_str(
            &self
                .head
                .iter()
                .map(|&v| self.var_names[v].as_str())
                .collect::<Vec<_>>()
                .join(","),
        );
        s.push_str(") = ");
        let body: Vec<String> = self
            .atoms
            .iter()
            .map(|a| {
                format!(
                    "{}({})",
                    a.relation,
                    a.vars
                        .iter()
                        .map(|&v| self.var_names[v].as_str())
                        .collect::<Vec<_>>()
                        .join(",")
                )
            })
            .collect();
        s.push_str(&body.join(","));
        s
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_datalog())
    }
}

/// Incremental builder for [`Query`] (see [`Query::builder`]).
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    name: String,
    head: Vec<String>,
    atoms: Vec<(String, Vec<String>)>,
}

impl QueryBuilder {
    /// Declares the head variables (also the default variable order).
    pub fn head<I, S>(mut self, vars: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.head = vars.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a body atom.
    pub fn atom<I, S>(mut self, relation: impl Into<String>, vars: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.atoms
            .push((relation.into(), vars.into_iter().map(Into::into).collect()));
        self
    }

    /// Validates and constructs the [`Query`].
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::NoAtoms`], [`QueryError::DuplicateVarInAtom`],
    /// or [`QueryError::HeadBodyMismatch`] on invalid input.
    pub fn build(self) -> Result<Query, QueryError> {
        self.build_inner(false)
    }

    /// Validates and constructs the [`Query`], allowing the head to
    /// *project*: body variables may be absent from the head.
    ///
    /// The paper's evaluation queries are all full joins, and the join
    /// engines do not implement projection — they reject such plans
    /// gracefully with a plan error instead of executing them. This
    /// constructor exists so harness code can express the query and get
    /// that graceful error (rather than the builder refusing the query
    /// outright, or an engine panicking mid-execution).
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::NoAtoms`], [`QueryError::DuplicateVarInAtom`],
    /// or [`QueryError::HeadBodyMismatch`] (duplicate head variable, or a
    /// head variable that appears in no body atom).
    pub fn build_projected(self) -> Result<Query, QueryError> {
        self.build_inner(true)
    }

    fn build_inner(self, allow_projection: bool) -> Result<Query, QueryError> {
        if self.atoms.is_empty() {
            return Err(QueryError::NoAtoms);
        }
        let mut var_names: Vec<String> = Vec::new();
        let intern = |name: &str, var_names: &mut Vec<String>| -> VarId {
            if let Some(i) = var_names.iter().position(|n| n == name) {
                i
            } else {
                var_names.push(name.to_owned());
                var_names.len() - 1
            }
        };
        // Intern head variables first so VarIds follow head order.
        let mut head = Vec::with_capacity(self.head.len());
        for h in &self.head {
            head.push(intern(h, &mut var_names));
        }
        let mut atoms = Vec::with_capacity(self.atoms.len());
        for (rel, vars) in &self.atoms {
            let mut ids = Vec::with_capacity(vars.len());
            for v in vars {
                let id = intern(v, &mut var_names);
                if ids.contains(&id) {
                    return Err(QueryError::DuplicateVarInAtom {
                        atom: rel.clone(),
                        var: v.clone(),
                    });
                }
                ids.push(id);
            }
            atoms.push(Atom {
                relation: rel.clone(),
                vars: ids,
            });
        }
        // Duplicate head variables are never allowed, every head variable
        // must be bound by some atom, and a full join must additionally
        // cover every body variable.
        let mut seen_in_head = vec![false; var_names.len()];
        for &h in &head {
            if seen_in_head[h] || !atoms.iter().any(|a| a.vars.contains(&h)) {
                return Err(QueryError::HeadBodyMismatch);
            }
            seen_in_head[h] = true;
        }
        if !allow_projection && head.len() != var_names.len() {
            return Err(QueryError::HeadBodyMismatch);
        }
        Ok(Query {
            name: self.name,
            var_names,
            head,
            atoms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_projected_allows_a_strict_head_subset() {
        let q = Query::builder("pairs")
            .head(["x", "z"])
            .atom("G", ["x", "y"])
            .atom("G", ["y", "z"])
            .build_projected()
            .unwrap();
        assert!(q.is_projection());
        assert_eq!(q.head(), &[0, 1]);
        assert_eq!(q.num_vars(), 3);
        // The same query is rejected by the full-join builder.
        let err = Query::builder("pairs")
            .head(["x", "z"])
            .atom("G", ["x", "y"])
            .atom("G", ["y", "z"])
            .build()
            .unwrap_err();
        assert_eq!(err, QueryError::HeadBodyMismatch);
    }

    #[test]
    fn build_projected_still_rejects_bad_heads() {
        // Duplicate head variable.
        assert!(Query::builder("q")
            .head(["x", "x"])
            .atom("G", ["x", "y"])
            .build_projected()
            .is_err());
        // Head variable bound by no atom.
        assert!(Query::builder("q")
            .head(["w"])
            .atom("G", ["x", "y"])
            .build_projected()
            .is_err());
    }

    #[test]
    fn full_queries_are_not_projections() {
        let q = Query::builder("q")
            .head(["x", "y"])
            .atom("G", ["x", "y"])
            .build()
            .unwrap();
        assert!(!q.is_projection());
    }

    fn path3() -> Query {
        Query::builder("path3")
            .head(["x", "y", "z"])
            .atom("R", ["x", "y"])
            .atom("S", ["y", "z"])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_interns_variables_in_head_order() {
        let q = path3();
        assert_eq!(q.num_vars(), 3);
        assert_eq!(q.var_name(0), "x");
        assert_eq!(q.var_name(1), "y");
        assert_eq!(q.var_name(2), "z");
        assert_eq!(q.head(), &[0, 1, 2]);
        assert_eq!(q.atoms()[1].vars(), &[1, 2]);
    }

    #[test]
    fn atoms_with_finds_membership() {
        let q = path3();
        assert_eq!(q.atoms_with(1).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(q.atoms_with(0).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn no_atoms_is_rejected() {
        let err = Query::builder("q").head(["x"]).build().unwrap_err();
        assert_eq!(err, QueryError::NoAtoms);
    }

    #[test]
    fn duplicate_var_in_atom_is_rejected() {
        let err = Query::builder("q")
            .head(["x"])
            .atom("R", ["x", "x"])
            .build()
            .unwrap_err();
        assert!(matches!(err, QueryError::DuplicateVarInAtom { .. }));
    }

    #[test]
    fn head_must_cover_body() {
        let err = Query::builder("q")
            .head(["x"])
            .atom("R", ["x", "y"])
            .build()
            .unwrap_err();
        assert_eq!(err, QueryError::HeadBodyMismatch);
        let err = Query::builder("q")
            .head(["x", "x"])
            .atom("R", ["x", "y"])
            .build()
            .unwrap_err();
        assert_eq!(err, QueryError::HeadBodyMismatch);
        // A head variable no atom binds: covering the body is not enough.
        let err = Query::builder("q")
            .head(["x", "y", "w"])
            .atom("G", ["x", "y"])
            .build()
            .unwrap_err();
        assert_eq!(err, QueryError::HeadBodyMismatch);
        let err = crate::parse_query("q(x,y,w) :- G(x,y).").unwrap_err();
        assert_eq!(err, QueryError::HeadBodyMismatch);
    }

    #[test]
    fn datalog_rendering_matches_paper_style() {
        assert_eq!(path3().to_datalog(), "path3(x,y,z) = R(x,y),S(y,z)");
        assert_eq!(path3().to_string(), "path3(x,y,z) = R(x,y),S(y,z)");
    }
}
