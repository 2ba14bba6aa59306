//! A synthetic stand-in for the paper's real diabetes dataset (§6.2).
//!
//! The original data is private medical data; what the experiments actually
//! exercise is the schema **shape**: a 1.3 M-row root (`Measurements`)
//! fanning out ~92:1 onto `Patients` (14 K), which references `Doctors`
//! (4.5 K), plus a tiny `Drugs` dimension (45) — with the §6.2 widths and
//! hidden/visible split (foreign keys and identifying attributes hidden).
//! This generator reproduces that shape deterministically; Figure 16's
//! observations (execution ≈ 1/10 of the synthetic dataset, SJoin dominant
//! because of the root fan-out) follow from the shape, not the values.

use crate::pad8;
use ghostdb_exec::database::{ColumnLoad, Database, TableLoad};
use ghostdb_exec::Result;
use ghostdb_storage::schema::{Column, SchemaTree, TableDef};
use ghostdb_storage::{CmpOp, ColumnType, Id, Predicate, Value};
use ghostdb_token::TokenConfig;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Specialties pool for the visible `Doctors.specialty` column.
pub const SPECIALTIES: [&str; 8] = [
    "Psychiatrist",
    "Cardiologist",
    "Endocrino",
    "Generalist",
    "Nutritionist",
    "Nephrologist",
    "Ophtalmo",
    "Podiatrist",
];

/// The medical dataset generator.
pub struct MedicalDataset {
    /// Schema per §6.2.
    pub schema: SchemaTree,
    /// Scale factor (1.0 = paper cardinalities).
    pub scale: f64,
    seed: u64,
    doctors: u64,
    patients: u64,
    measurements: u64,
    drugs: u64,
    patient_fk: Arc<Vec<Id>>,
    drug_fk: Arc<Vec<Id>>,
    doctor_fk: Arc<Vec<Id>>,
    /// Permutation behind `Patients.first-name` (exact visible selectivity).
    first_name_perm: Arc<Vec<u32>>,
    /// Permutation behind `Doctors.name` (exact hidden selectivity).
    doctor_name_perm: Arc<Vec<u32>>,
    bmi: Arc<Vec<f32>>,
}

/// The §6.2 medical schema: hidden foreign keys + hidden identifying
/// attributes, visible clinical data.
pub fn medical_schema() -> SchemaTree {
    let measurements = TableDef::new("Measurements")
        .with_fk("patient_id", "Patients")
        .with_fk("drug_id", "Drugs")
        .with_column(Column::visible("time", ColumnType::char(10)))
        .with_column(Column::visible("measurement", ColumnType::char(10)))
        .with_column(Column::visible("comment", ColumnType::char(100)));
    let patients = TableDef::new("Patients")
        .with_fk("doctor_id", "Doctors")
        .with_column(Column::visible("first_name", ColumnType::char(20)))
        .with_column(Column::hidden("name", ColumnType::char(20)))
        .with_column(Column::hidden("ssn", ColumnType::char(10)))
        .with_column(Column::hidden("address", ColumnType::char(50)))
        .with_column(Column::hidden("birthdate", ColumnType::char(10)))
        .with_column(Column::hidden("bodymassindex", ColumnType::float()))
        .with_column(Column::visible("age", ColumnType::Int { width: 2 }))
        .with_column(Column::visible("sexe", ColumnType::char(2)))
        .with_column(Column::visible("city", ColumnType::char(20)))
        .with_column(Column::visible("zipcode", ColumnType::char(6)));
    let doctors = TableDef::new("Doctors")
        .with_column(Column::visible("specialty", ColumnType::char(20)))
        .with_column(Column::visible("description", ColumnType::char(60)))
        .with_column(Column::hidden("first_name", ColumnType::char(20)))
        .with_column(Column::hidden("name", ColumnType::char(20)));
    let drugs = TableDef::new("Drugs")
        .with_column(Column::visible("property", ColumnType::char(60)))
        .with_column(Column::hidden("comment", ColumnType::char(100)));
    SchemaTree::new(vec![measurements, patients, doctors, drugs]).expect("valid medical schema")
}

impl MedicalDataset {
    /// Generate at `scale` (1.0 = paper cardinalities: 1.3 M measurements).
    pub fn generate(scale: f64, seed: u64) -> Self {
        let schema = medical_schema();
        let doctors = ((4_500.0 * scale) as u64).max(10);
        let patients = ((14_000.0 * scale) as u64).max(20);
        let measurements = ((1_300_000.0 * scale) as u64).max(100);
        let drugs = 45u64.max((45.0 * scale) as u64);
        let mut rng = SmallRng::seed_from_u64(seed);
        let patient_fk = Arc::new(
            (0..measurements)
                .map(|_| rng.gen_range(0..patients) as Id)
                .collect::<Vec<_>>(),
        );
        let drug_fk = Arc::new(
            (0..measurements)
                .map(|_| rng.gen_range(0..drugs) as Id)
                .collect::<Vec<_>>(),
        );
        let doctor_fk = Arc::new(
            (0..patients)
                .map(|_| rng.gen_range(0..doctors) as Id)
                .collect::<Vec<_>>(),
        );
        let mut fn_perm: Vec<u32> = (0..patients as u32).collect();
        fn_perm.shuffle(&mut rng);
        let mut dn_perm: Vec<u32> = (0..doctors as u32).collect();
        dn_perm.shuffle(&mut rng);
        let bmi = Arc::new(
            (0..patients)
                .map(|_| rng.gen_range(15.0f32..45.0))
                .collect::<Vec<_>>(),
        );
        MedicalDataset {
            schema,
            scale,
            seed,
            doctors,
            patients,
            measurements,
            drugs,
            patient_fk,
            drug_fk,
            doctor_fk,
            first_name_perm: Arc::new(fn_perm),
            doctor_name_perm: Arc::new(dn_perm),
            bmi,
        }
    }

    /// Cardinalities as (measurements, patients, doctors, drugs).
    pub fn cardinalities(&self) -> (u64, u64, u64, u64) {
        (self.measurements, self.patients, self.doctors, self.drugs)
    }

    /// Build the GhostDB database.
    pub fn build(&self) -> Result<Database> {
        let seed = self.seed;
        let bytes = self.measurements * 160 + 64 * 1024 * 1024;
        let config = TokenConfig::paper_platform(bytes);

        let meas = TableLoad {
            table: "Measurements".into(),
            rows: self.measurements,
            fks: vec![
                ("patient_id".into(), self.patient_fk.as_ref().clone()),
                ("drug_id".into(), self.drug_fk.as_ref().clone()),
            ],
            columns: vec![
                ColumnLoad {
                    name: "time".into(),
                    gen: Box::new(move |r| Value::Str(format!("d{:08}", r as u64 % 3650))),
                    index: false,
                },
                ColumnLoad {
                    name: "measurement".into(),
                    gen: Box::new(move |r| {
                        Value::Str(format!(
                            "{:.2}",
                            3.0 + ((r as u64 * seed) % 900) as f64 / 100.0
                        ))
                    }),
                    index: false,
                },
                ColumnLoad {
                    name: "comment".into(),
                    gen: Box::new(|r| Value::Str(format!("glycemia reading #{r} nominal"))),
                    index: false,
                },
            ],
        };
        let first_name_perm = self.first_name_perm.clone();
        let bmi = self.bmi.clone();
        let patients = TableLoad {
            table: "Patients".into(),
            rows: self.patients,
            fks: vec![("doctor_id".into(), self.doctor_fk.as_ref().clone())],
            columns: vec![
                ColumnLoad {
                    name: "first_name".into(),
                    gen: Box::new(move |r| pad8(first_name_perm[r as usize] as u64)),
                    index: false,
                },
                ColumnLoad {
                    name: "name".into(),
                    gen: Box::new(|r| Value::Str(format!("PATIENT_{r:06}"))),
                    index: false,
                },
                ColumnLoad {
                    name: "ssn".into(),
                    gen: Box::new(move |r| Value::Str(format!("{:09}", r as u64 * 37 % 999999999))),
                    index: false,
                },
                ColumnLoad {
                    name: "address".into(),
                    gen: Box::new(|r| Value::Str(format!("{} rue de la Paix", r % 300))),
                    index: false,
                },
                ColumnLoad {
                    name: "birthdate".into(),
                    gen: Box::new(|r| Value::Str(format!("19{:02}-01-01", r % 80))),
                    index: false,
                },
                ColumnLoad {
                    name: "bodymassindex".into(),
                    gen: Box::new(move |r| Value::Float(bmi[r as usize] as f64)),
                    index: true,
                },
                ColumnLoad {
                    name: "age".into(),
                    gen: Box::new(|r| Value::Int(18 + (r as i64 * 13) % 72)),
                    index: false,
                },
                ColumnLoad {
                    name: "sexe".into(),
                    gen: Box::new(|r| Value::Str(if r % 2 == 0 { "F" } else { "M" }.into())),
                    index: false,
                },
                ColumnLoad {
                    name: "city".into(),
                    gen: Box::new(|r| Value::Str(format!("City{:03}", r % 500))),
                    index: false,
                },
                ColumnLoad {
                    name: "zipcode".into(),
                    gen: Box::new(|r| Value::Str(format!("{:05}", 1000 + r % 95000))),
                    index: false,
                },
            ],
        };
        let doctor_name_perm = self.doctor_name_perm.clone();
        let doctors = TableLoad {
            table: "Doctors".into(),
            rows: self.doctors,
            fks: vec![],
            columns: vec![
                ColumnLoad {
                    name: "specialty".into(),
                    gen: Box::new(|r| {
                        Value::Str(SPECIALTIES[r as usize % SPECIALTIES.len()].into())
                    }),
                    index: false,
                },
                ColumnLoad {
                    name: "description".into(),
                    gen: Box::new(|r| Value::Str(format!("practice #{r}"))),
                    index: false,
                },
                ColumnLoad {
                    name: "first_name".into(),
                    gen: Box::new(|r| Value::Str(format!("DF{r:06}"))),
                    index: false,
                },
                ColumnLoad {
                    name: "name".into(),
                    gen: Box::new(move |r| pad8(doctor_name_perm[r as usize] as u64)),
                    index: true,
                },
            ],
        };
        let drugs = TableLoad {
            table: "Drugs".into(),
            rows: self.drugs,
            fks: vec![],
            columns: vec![
                ColumnLoad {
                    name: "property".into(),
                    gen: Box::new(|r| Value::Str(format!("insulin-class-{r}"))),
                    index: false,
                },
                ColumnLoad {
                    name: "comment".into(),
                    gen: Box::new(|r| Value::Str(format!("posology note {r}"))),
                    index: true,
                },
            ],
        };
        Database::assemble(
            self.schema.clone(),
            &config,
            vec![meas, patients, doctors, drugs],
        )
    }

    /// Exact-selectivity visible predicate on `Patients.first_name`.
    pub fn visible_pred(&self, selectivity: f64) -> Predicate {
        let k = ((selectivity * self.patients as f64).round() as u64).clamp(0, self.patients);
        Predicate::new("first_name", CmpOp::Lt, pad8(k), None)
    }

    /// Exact-selectivity hidden predicate on `Doctors.name`.
    pub fn hidden_pred(&self, selectivity: f64) -> Predicate {
        let k = ((selectivity * self.doctors as f64).round() as u64).clamp(0, self.doctors);
        Predicate::new("name", CmpOp::Lt, pad8(k), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_exec::{ExecOptions, Executor, SpjQuery};

    #[test]
    fn schema_matches_paper_shape() {
        let s = medical_schema();
        let m = s.table_id("Measurements").unwrap();
        assert_eq!(s.root(), m);
        let p = s.table_id("Patients").unwrap();
        let d = s.table_id("Doctors").unwrap();
        assert_eq!(s.ancestors(d), vec![p, m]);
        // Hidden/visible split per §6.2.
        let pat = s.def(p);
        assert!(pat.is_fk("doctor_id"));
        assert_eq!(
            pat.column("bodymassindex").unwrap().visibility,
            ghostdb_storage::Visibility::Hidden
        );
        assert_eq!(
            pat.column("age").unwrap().visibility,
            ghostdb_storage::Visibility::Visible
        );
    }

    #[test]
    fn raw_tuple_widths_match_paper() {
        let s = medical_schema();
        // Measurements: id(4)+2 fks(8)+10+10+100 = 132 bytes (§6.2).
        assert_eq!(
            s.def(s.table_id("Measurements").unwrap()).raw_tuple_bytes(),
            132
        );
        // Patients: 4+4+20+20+10+50+10+4+2+2+20+6 = 152.
        assert_eq!(
            s.def(s.table_id("Patients").unwrap()).raw_tuple_bytes(),
            152
        );
        // Doctors: 4+20+60+20+20 = 124.
        assert_eq!(s.def(s.table_id("Doctors").unwrap()).raw_tuple_bytes(), 124);
        // Drugs: 4+60+100 = 164.
        assert_eq!(s.def(s.table_id("Drugs").unwrap()).raw_tuple_bytes(), 164);
    }

    #[test]
    fn figure16_query_runs_on_small_scale() {
        let ds = MedicalDataset::generate(0.002, 7);
        let mut db = ds.build().unwrap();
        let m = db.schema.table_id("Measurements").unwrap();
        let p = db.schema.table_id("Patients").unwrap();
        let d = db.schema.table_id("Doctors").unwrap();
        let mut q = SpjQuery::new()
            .pred(p, ds.visible_pred(0.2))
            .pred(d, ds.hidden_pred(0.1))
            .project(m, "id")
            .project(p, "id")
            .project(d, "id")
            .project(p, "first_name");
        q.text = "fig16".into();
        let (rs, report) = Executor::run(&mut db, &q, &ExecOptions::auto()).unwrap();
        // Expected cardinality ≈ |M| × sV × sH; exact check against fks.
        let expect = (0..ds.cardinalities().0 as u32)
            .filter(|r| {
                let pat = ds.patient_fk[*r as usize];
                let doc = ds.doctor_fk[pat as usize];
                (ds.first_name_perm[pat as usize] as u64)
                    < ((0.2 * ds.patients as f64).round() as u64)
                    && (ds.doctor_name_perm[doc as usize] as u64)
                        < ((0.1 * ds.doctors as f64).round() as u64)
            })
            .count();
        assert_eq!(rs.len(), expect);
        assert!(report.total().as_ns() > 0);
    }

    #[test]
    fn bmi_float_predicates_work() {
        let ds = MedicalDataset::generate(0.002, 7);
        let mut db = ds.build().unwrap();
        let m = db.schema.table_id("Measurements").unwrap();
        let p = db.schema.table_id("Patients").unwrap();
        let mut q = SpjQuery::new()
            .pred(
                p,
                Predicate::new("bodymassindex", CmpOp::Gt, Value::Float(25.0), None),
            )
            .project(m, "id")
            .project(p, "bodymassindex");
        q.text = "bmi".into();
        let (rs, _) = Executor::run(&mut db, &q, &ExecOptions::auto()).unwrap();
        let expect = (0..ds.cardinalities().0 as u32)
            .filter(|r| ds.bmi[ds.patient_fk[*r as usize] as usize] > 25.0)
            .count();
        assert_eq!(rs.len(), expect);
        for row in &rs.rows {
            let Value::Float(b) = row[1] else { panic!() };
            assert!(b > 25.0);
        }
    }
}
