//! Relational schema descriptions.

use crate::error::RelError;
use std::collections::BTreeMap;
use std::fmt;

/// Column data types. Deliberately small; the dataspace layer cares about structure
/// and values, not about a full SQL type system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Text => write!(f, "TEXT"),
            DataType::Bool => write!(f, "BOOL"),
        }
    }
}

/// A column of a relational table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelColumn {
    /// Column name.
    pub name: String,
    /// Declared data type.
    pub data_type: DataType,
    /// Whether null values are accepted.
    pub nullable: bool,
}

impl RelColumn {
    /// A non-nullable column.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        RelColumn {
            name: name.into(),
            data_type,
            nullable: false,
        }
    }

    /// A nullable column.
    pub fn nullable(name: impl Into<String>, data_type: DataType) -> Self {
        RelColumn {
            name: name.into(),
            data_type,
            nullable: true,
        }
    }
}

/// A foreign-key declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing columns in this table.
    pub columns: Vec<String>,
    /// Referenced table.
    pub ref_table: String,
    /// Referenced columns (usually the primary key of `ref_table`).
    pub ref_columns: Vec<String>,
}

/// A relational table: ordered columns, a primary key and foreign keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelTable {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<RelColumn>,
    /// Primary-key column names (subset of `columns`).
    pub primary_key: Vec<String>,
    /// Foreign keys.
    pub foreign_keys: Vec<ForeignKey>,
}

impl RelTable {
    /// A table with no columns yet (builder style).
    pub fn new(name: impl Into<String>) -> Self {
        RelTable {
            name: name.into(),
            columns: Vec::new(),
            primary_key: Vec::new(),
            foreign_keys: Vec::new(),
        }
    }

    /// Add a column (builder style).
    pub fn with_column(mut self, column: RelColumn) -> Self {
        self.columns.push(column);
        self
    }

    /// Declare the primary key (builder style).
    pub fn with_primary_key<I, S>(mut self, columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.primary_key = columns.into_iter().map(Into::into).collect();
        self
    }

    /// Declare a foreign key (builder style).
    pub fn with_foreign_key(
        mut self,
        columns: &[&str],
        ref_table: &str,
        ref_columns: &[&str],
    ) -> Self {
        self.foreign_keys.push(ForeignKey {
            columns: columns.iter().map(|s| s.to_string()).collect(),
            ref_table: ref_table.to_string(),
            ref_columns: ref_columns.iter().map(|s| s.to_string()).collect(),
        });
        self
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Option<&RelColumn> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Names of the non-key columns (in declaration order).
    pub fn non_key_columns(&self) -> Vec<&str> {
        self.columns
            .iter()
            .filter(|c| !self.primary_key.contains(&c.name))
            .map(|c| c.name.as_str())
            .collect()
    }

    /// Validate internal consistency (keys reference existing columns, no duplicates).
    pub fn validate(&self) -> Result<(), RelError> {
        let mut seen = std::collections::BTreeSet::new();
        for c in &self.columns {
            if !seen.insert(&c.name) {
                return Err(RelError::DuplicateColumn {
                    table: self.name.clone(),
                    column: c.name.clone(),
                });
            }
        }
        for k in &self.primary_key {
            if self.column(k).is_none() {
                return Err(RelError::BadKey {
                    table: self.name.clone(),
                    detail: format!("primary key column `{k}` does not exist"),
                });
            }
        }
        for fk in &self.foreign_keys {
            if fk.columns.len() != fk.ref_columns.len() {
                return Err(RelError::BadKey {
                    table: self.name.clone(),
                    detail: "foreign key column count mismatch".into(),
                });
            }
            for c in &fk.columns {
                if self.column(c).is_none() {
                    return Err(RelError::BadKey {
                        table: self.name.clone(),
                        detail: format!("foreign key column `{c}` does not exist"),
                    });
                }
            }
        }
        Ok(())
    }
}

/// A relational schema: a named collection of tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelSchema {
    /// Schema (data source) name.
    pub name: String,
    tables: BTreeMap<String, RelTable>,
}

impl RelSchema {
    /// An empty schema.
    pub fn new(name: impl Into<String>) -> Self {
        RelSchema {
            name: name.into(),
            tables: BTreeMap::new(),
        }
    }

    /// Add a table; validates the table and name freshness.
    pub fn add_table(&mut self, table: RelTable) -> Result<(), RelError> {
        table.validate()?;
        if self.tables.contains_key(&table.name) {
            return Err(RelError::DuplicateTable(table.name));
        }
        self.tables.insert(table.name.clone(), table);
        Ok(())
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Option<&RelTable> {
        self.tables.get(name)
    }

    /// Iterate over tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &RelTable> {
        self.tables.values()
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total number of columns across all tables.
    pub fn column_count(&self) -> usize {
        self.tables.values().map(|t| t.columns.len()).sum()
    }

    /// Validate every table and check that foreign keys reference existing tables and
    /// columns.
    pub fn validate(&self) -> Result<(), RelError> {
        for t in self.tables.values() {
            t.validate()?;
            for fk in &t.foreign_keys {
                let target = self
                    .table(&fk.ref_table)
                    .ok_or_else(|| RelError::UnknownTable(fk.ref_table.clone()))?;
                for rc in &fk.ref_columns {
                    if target.column(rc).is_none() {
                        return Err(RelError::UnknownColumn {
                            table: fk.ref_table.clone(),
                            column: rc.clone(),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn protein_table() -> RelTable {
        RelTable::new("protein")
            .with_column(RelColumn::new("id", DataType::Int))
            .with_column(RelColumn::new("accession_num", DataType::Text))
            .with_column(RelColumn::nullable("organism", DataType::Text))
            .with_primary_key(["id"])
    }

    #[test]
    fn table_builder_and_lookup() {
        let t = protein_table();
        assert_eq!(t.column_index("accession_num"), Some(1));
        assert_eq!(t.non_key_columns(), vec!["accession_num", "organism"]);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn bad_primary_key_detected() {
        let t = RelTable::new("x")
            .with_column(RelColumn::new("a", DataType::Int))
            .with_primary_key(["missing"]);
        assert!(matches!(t.validate(), Err(RelError::BadKey { .. })));
    }

    #[test]
    fn duplicate_column_detected() {
        let t = RelTable::new("x")
            .with_column(RelColumn::new("a", DataType::Int))
            .with_column(RelColumn::new("a", DataType::Text));
        assert!(matches!(
            t.validate(),
            Err(RelError::DuplicateColumn { .. })
        ));
    }

    #[test]
    fn schema_foreign_key_validation() {
        let mut s = RelSchema::new("pedro");
        s.add_table(protein_table()).unwrap();
        s.add_table(
            RelTable::new("proteinhit")
                .with_column(RelColumn::new("id", DataType::Int))
                .with_column(RelColumn::new("protein", DataType::Int))
                .with_primary_key(["id"])
                .with_foreign_key(&["protein"], "protein", &["id"]),
        )
        .unwrap();
        assert!(s.validate().is_ok());

        let mut bad = RelSchema::new("bad");
        bad.add_table(
            RelTable::new("a")
                .with_column(RelColumn::new("id", DataType::Int))
                .with_primary_key(["id"])
                .with_foreign_key(&["id"], "nonexistent", &["id"]),
        )
        .unwrap();
        assert!(matches!(bad.validate(), Err(RelError::UnknownTable(_))));
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut s = RelSchema::new("pedro");
        s.add_table(protein_table()).unwrap();
        assert!(matches!(
            s.add_table(protein_table()),
            Err(RelError::DuplicateTable(_))
        ));
        assert_eq!(s.table_count(), 1);
        assert_eq!(s.column_count(), 3);
    }
}
